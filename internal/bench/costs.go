// Package bench contains one driver per table and figure of the paper's
// evaluation (Section 4), each regenerating the same rows or series the
// paper reports, on the simulated testbed.
package bench

import (
	"fmt"
	"io"

	millipage "millipage"
	"millipage/internal/dsm"
	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/twindiff"
)

// Table1 prints the cost of basic operations (paper Table 1), combining
// the calibrated local costs with the messaging model's end-to-end
// send/receive times.
func Table1(w io.Writer) {
	c := dsm.DefaultCosts()
	net := fastmsg.DefaultParams()
	fmt.Fprintln(w, "Table 1: cost of basic operations (paper value in parentheses)")
	rows := []struct {
		op    string
		got   sim.Duration
		paper string
	}{
		{"access fault", c.AccessFault, "26"},
		{"get protection", c.GetProt, "7"},
		{"set protection", c.SetProt, "12"},
		{"header message send/recv (32 bytes)", net.OneWay(32), "12"},
		{"a data message send/recv (0.5 KB)", net.OneWay(512), "22"},
		{"a data message send/recv (1 KB)", net.OneWay(1024), "34"},
		{"a data message send/recv (4 KB)", net.OneWay(4096), "90"},
		{"minipage translation (MPT lookup)", c.MPTLookup, "7"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-38s %6.1f us   (%s)\n", r.op, r.got.Microseconds(), r.paper)
	}
}

// FetchCosts measures the end-to-end minipage fetch times of Section 4.2:
// bringing a minipage in for reading and for writing, for 128-byte and
// 4 KB minipages, with varying numbers of read copies to invalidate —
// under each directory placement (Placements), the paper's central
// manager in the last column.
func FetchCosts(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.2: minipage fetch times (paper: read 204-314 us; write 212-366 / 327-480 us)")
	placements := Placements("millipage")
	fmt.Fprintf(w, "  %-34s", "")
	for _, pl := range placements {
		fmt.Fprintf(w, " %10s", pl.Name)
	}
	fmt.Fprintln(w)
	row := func(label string, measure func(central bool) (sim.Duration, error)) error {
		fmt.Fprintf(w, "  %-34s", label)
		for _, pl := range placements {
			d, err := measure(pl.Central)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %7.0f us", d.Microseconds())
		}
		fmt.Fprintln(w)
		return nil
	}
	for _, size := range []int{128, 4096} {
		err := row(fmt.Sprintf("read  fetch %4dB minipage:", size), func(central bool) (sim.Duration, error) {
			return measureReadFetch(size, central)
		})
		if err != nil {
			return err
		}
		for _, copies := range []int{1, 3, 7} {
			err := row(fmt.Sprintf("write fetch %4dB, %d read copies:", size, copies), func(central bool) (sim.Duration, error) {
				return measureWriteFetch(size, copies, central)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// measureReadFetch times host 1 read-faulting a minipage owned by host 0,
// averaged over several cold fetches.
func measureReadFetch(size int, central bool) (sim.Duration, error) {
	const trials = 8
	cluster, err := millipage.NewCluster(millipage.Config{
		Hosts: 2, SharedMemory: 1 << 20, Views: 4, Seed: 42, CentralManagement: central,
	})
	if err != nil {
		return 0, err
	}
	addrs := make([]millipage.Addr, trials)
	report, err := cluster.Run(func(wk *millipage.Worker) {
		if wk.Host() == 0 {
			data := make([]byte, size)
			for i := range addrs {
				addrs[i] = wk.Malloc(size)
				wk.Write(addrs[i], data)
			}
		}
		wk.Barrier()
		if wk.Host() == 1 {
			buf := make([]byte, size)
			for i := range addrs {
				wk.Read(addrs[i], buf)
			}
		}
		wk.Barrier()
	})
	if err != nil {
		return 0, err
	}
	for _, tr := range report.Threads {
		if tr.Host == 1 {
			return tr.ReadFault / trials, nil
		}
	}
	return 0, fmt.Errorf("bench: host 1 thread not found")
}

// measureWriteFetch times a write fault that must invalidate `copies`
// read copies first.
func measureWriteFetch(size, copies int, central bool) (sim.Duration, error) {
	const trials = 8
	hosts := copies + 1
	cluster, err := millipage.NewCluster(millipage.Config{
		Hosts: hosts + 1, SharedMemory: 1 << 20, Views: 4, Seed: 42, CentralManagement: central,
	})
	if err != nil {
		return 0, err
	}
	addrs := make([]millipage.Addr, trials)
	writer := hosts // the last host does the measured writes
	report, err := cluster.Run(func(wk *millipage.Worker) {
		if wk.Host() == 0 {
			data := make([]byte, size)
			for i := range addrs {
				addrs[i] = wk.Malloc(size)
				wk.Write(addrs[i], data)
			}
		}
		wk.Barrier()
		// Hosts 0..copies-1 take read copies.
		if wk.Host() < copies {
			buf := make([]byte, size)
			for i := range addrs {
				wk.Read(addrs[i], buf)
			}
		}
		wk.Barrier()
		if wk.Host() == writer {
			data := make([]byte, size)
			for i := range addrs {
				wk.Write(addrs[i], data)
			}
		}
		wk.Barrier()
	})
	if err != nil {
		return 0, err
	}
	for _, tr := range report.Threads {
		if tr.Host == writer {
			return tr.WriteFlt / trials, nil
		}
	}
	return 0, fmt.Errorf("bench: writer thread not found")
}

// SynchCosts measures barrier and lock costs (Section 4.2: barrier
// 59-153 us linear in hosts; lock followed by unlock 67-80 us), and the
// barrier past the paper's testbed, where it combines up a fan-in-8 tree.
func SynchCosts(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.2: synchronization (paper: barrier 59-153 us for 1-8 hosts; lock+unlock 67-80 us)")
	for _, hosts := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256} {
		d, err := measureBarrier(hosts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  barrier, %3d host(s): %6.0f us\n", hosts, d.Microseconds())
	}
	l, err := measureLockUnlock()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  lock + unlock:        %6.0f us\n", l.Microseconds())
	return nil
}

func measureBarrier(hosts int) (sim.Duration, error) {
	const trials = 16
	cluster, err := millipage.NewCluster(millipage.Config{
		Hosts: hosts, SharedMemory: 1 << 16, Views: 1, Seed: 42,
	})
	if err != nil {
		return 0, err
	}
	report, err := cluster.Run(func(wk *millipage.Worker) {
		for i := 0; i < trials; i++ {
			wk.Barrier()
		}
	})
	if err != nil {
		return 0, err
	}
	return report.Threads[0].Synch / trials, nil
}

func measureLockUnlock() (sim.Duration, error) {
	const trials = 16
	cluster, err := millipage.NewCluster(millipage.Config{
		Hosts: 2, SharedMemory: 1 << 16, Views: 1, Seed: 42,
	})
	if err != nil {
		return 0, err
	}
	report, err := cluster.Run(func(wk *millipage.Worker) {
		if wk.Host() == 1 { // uncontended, non-manager host
			for i := 0; i < trials; i++ {
				wk.Lock(5)
				wk.Unlock(5)
			}
		}
		wk.Barrier()
	})
	if err != nil {
		return 0, err
	}
	for _, tr := range report.Threads {
		if tr.Host == 1 {
			return tr.Synch / trials, nil
		}
	}
	return 0, fmt.Errorf("bench: host 1 thread not found")
}

// DiffCosts reports the run-length diff measurement of Section 4.2
// (250 us for a 4 KB page, linear in page size) — the cost Millipage's
// thin protocol avoids — from the calibrated model, alongside a real
// diff of a synthetically dirtied page to show the implementation works.
func DiffCosts(w io.Writer) {
	fmt.Fprintln(w, "Section 4.2: run-length diff creation (paper: 250 us for 4 KB, linear in size)")
	for _, size := range []int{512, 1024, 2048, 4096} {
		fmt.Fprintf(w, "  diff of %4dB page: %6.1f us (model)\n", size, twindiff.CreateCost(size).Microseconds())
	}
	// Demonstrate the real machinery.
	page := make([]byte, 4096)
	twin := twindiff.Twin(page)
	for i := 0; i < 4096; i += 128 {
		page[i] = 0xFF
	}
	runs, _ := twindiff.Diff(twin, page)
	fmt.Fprintf(w, "  real diff of a page with 32 dirty words: %d runs, %d encoded bytes\n",
		len(runs), twindiff.Size(runs))
}
