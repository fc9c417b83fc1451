package main

import (
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// score compares an answer with the oracle's skyline, matching tuples by
// site and attributes (Params.Recall's definition). recall is the share of
// the oracle's tuples the answer holds, 1 for an empty oracle; exact
// reports that the answer is the oracle's skyline, no more and no less.
func score(answer, truth []tuple.Tuple) (recall float64, exact bool) {
	type site struct{ x, y float64 }
	bySite := make(map[site]tuple.Tuple, len(truth))
	for _, t := range truth {
		bySite[site{t.X, t.Y}] = t
	}
	matched := 0
	for _, t := range answer {
		if u, ok := bySite[site{t.X, t.Y}]; ok && u.Equal(t) {
			matched++
			delete(bySite, site{t.X, t.Y})
		}
	}
	exact = matched == len(truth) && matched == len(answer)
	if len(truth) == 0 {
		return 1, exact
	}
	return float64(matched) / float64(len(truth)), exact
}

// constrained is the centralized constrained skyline: the skyline of the
// tuples within distance d of pos. It computes what skyline.Constrained
// does, with a block-nested-loop pass in place of the sort, which is an
// order of magnitude faster for the small skylines of independent data.
func constrained(data []tuple.Tuple, pos tuple.Point, d float64) []tuple.Tuple {
	var in []tuple.Tuple
	for _, t := range data {
		if pos.WithinDist(t.Pos(), d) {
			in = append(in, t)
		}
	}
	return skyline.BNL(in)
}
