package main

import "testing"

// The workloads' own checks must pass on a short run: every answer equals
// the oracle, and on live-mesh every query is evaluated exactly n−1 times
// with no frame after the last flood.

func TestLocalACShortRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep, err := runLocalAC(runConfig{seed: 3, seconds: 0.5, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		res := rep.result(trace)
		if !res.Correct || res.Attempted == 0 || len(rep.repeats) != 0 {
			t.Fatalf("trace=%v: %+v problems %v repeats %v", trace, res, rep.problems, rep.repeats)
		}
		if trace && res.Metrics["core.remote_evals_per_query"].Value != 15 {
			t.Errorf("remote evaluations per query = %g, want 15", res.Metrics["core.remote_evals_per_query"].Value)
		}
	}
}

func TestLiveMeshShortRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep, err := runLiveMesh(runConfig{seed: 3, seconds: 0.5, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		res := rep.result(trace)
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("trace=%v: %+v problems %v", trace, res, rep.problems)
		}
		if !trace {
			if r := res.Metrics["recall"].Value; r != 1 {
				t.Errorf("recall = %g, want 1", r)
			}
			continue
		}
		if v := res.Metrics["core.remote_evals_per_query"].Value; v != 15 {
			t.Errorf("remote evaluations per query = %g, want 15", v)
		}
		for _, name := range []string{"tcp.query_ms_p50", "gateway.self_ms_p50", "tcp.hop_us_p50", "tcp.handle_us_p50", "tcp.queue_write_us_p50"} {
			if v := res.Metrics[name].Value; v <= 0 {
				t.Errorf("%s = %g, want a measured positive value", name, v)
			}
		}
	}
}
