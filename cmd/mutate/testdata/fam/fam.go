package fam

type T struct{ n int }

func (t *T) inc() {
	t.n++
	if t.n > 2 {
		t.n = 0
	}
}

func f(x int) int {
	switch x {
	case 1:
		x++
	}
	x++
	return x
}
