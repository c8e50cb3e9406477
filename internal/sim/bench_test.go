package sim

import "testing"

// BenchmarkEventDispatch measures raw calendar throughput: schedule and
// fire engine callbacks.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Spawn("driver", func(p *Proc) {
		for n < b.N {
			p.Sleep(1000)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures the goroutine-handshake cost of one
// Sleep (park + resume round trip).
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff measures producer->consumer rendezvous.
func BenchmarkQueueHandoff(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessHandover measures a real process switch: two processes
// sleep on interleaved phases, so every Sleep finds the other's resume
// first in the calendar and gives up the processor to it (park, yield
// to the driver loop, resume the successor). 0 allocs/op.
func BenchmarkProcessHandover(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(i))
			for j := 0; j < b.N/2; j++ {
				p.Sleep(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
