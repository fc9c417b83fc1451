package main

import (
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

func mkTuple(x, y, a, b float64) tuple.Tuple {
	return tuple.Tuple{X: x, Y: y, Attrs: []float64{a, b}}
}

func TestConstrainedMatchesSkylineConstrained(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.AntiCorrelated} {
		data := gen.Generate(gen.DefaultConfig(5000, 2, dist, 7))
		for _, pos := range []tuple.Point{{X: 500, Y: 500}, {X: 0, Y: 0}, {X: 900, Y: 120}} {
			for _, d := range []float64{100, 250, 2000} {
				got, want := constrained(data, pos, d), skyline.Constrained(data, pos, d)
				if _, exact := score(got, want); !exact {
					t.Errorf("%v data, pos %v, d %g: %d tuples, skyline.Constrained has %d", dist, pos, d, len(got), len(want))
				}
			}
		}
	}
}

func TestScore(t *testing.T) {
	a := mkTuple(1, 1, 5, 5)
	b := mkTuple(2, 2, 3, 7)
	c := mkTuple(3, 3, 7, 3)
	truth := []tuple.Tuple{a, b, c}
	if r, exact := score(truth, truth); r != 1 || !exact {
		t.Errorf("identical answer scored %g exact=%v", r, exact)
	}
	if r, exact := score(truth[:2], truth); r != 2.0/3 || exact {
		t.Errorf("missing tuple scored %g exact=%v", r, exact)
	}
	moved := mkTuple(1, 1, 5, 6) // same site, other attributes
	if r, exact := score([]tuple.Tuple{moved, b, c}, truth); r != 2.0/3 || exact {
		t.Errorf("changed tuple scored %g exact=%v", r, exact)
	}
	if _, exact := score(append(truth, mkTuple(9, 9, 1, 9)), truth); exact {
		t.Error("answer with an extra tuple scored exact")
	}
	if r, exact := score(nil, nil); r != 1 || !exact {
		t.Errorf("empty answer to empty oracle scored %g exact=%v", r, exact)
	}
}
