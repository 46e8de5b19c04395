package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// small runs every workload at its reduced shape for the minimum round
// count, so the suite exercises the same code paths in seconds.
var small = options{seed: 7, seconds: 0.001, small: true}

// TestTracedMatchesUntraced runs each workload untraced and traced: both
// passes must pass their output checks and commit identical model and ledger
// digests and identical energy per update, and the traced pass's layers must
// cover its round time.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			base, err := w.run(small, false)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := w.run(small, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{base, tr} {
				if !r.correct() {
					t.Fatalf("output check failed: %v (checked %d rounds)", r.mismatches, r.checked)
				}
			}
			if base.modelDigest == "" || base.ledgerDigest == "" {
				t.Fatalf("missing digests %q/%q", base.modelDigest, base.ledgerDigest)
			}
			if base.modelDigest != tr.modelDigest || base.ledgerDigest != tr.ledgerDigest {
				t.Errorf("digests: untraced %s/%s, traced %s/%s",
					base.modelDigest, base.ledgerDigest, tr.modelDigest, tr.ledgerDigest)
			}
			if a, b := base.energyPerUpdate(), tr.energyPerUpdate(); a != b || a <= 0 {
				t.Errorf("energy_j_per_update: untraced %v, traced %v", a, b)
			}
			// Layers sum to the round time: the measured self times cover
			// most of it and never more than all of it. The floor leaves room
			// for what no span encloses yet: on serve-tree-chaos, attempt
			// set-up before the fl_attempt span opens.
			if c := tr.layers["trace.coverage"]; c < 0.75 || c > 1.02 {
				t.Errorf("trace.coverage %.3f outside [0.75, 1.02]", c)
			}
		})
	}
}

// TestDigestsFollowSeed checks that a seed replays bit for bit and that
// another seed gives other inputs.
func TestDigestsFollowSeed(t *testing.T) {
	w, _ := findWorkload("serve-tree-chaos")
	a, err := w.run(small, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.run(small, false)
	if err != nil {
		t.Fatal(err)
	}
	other := small
	other.seed++
	c, err := w.run(other, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.modelDigest != b.modelDigest || a.ledgerDigest != b.ledgerDigest {
		t.Errorf("same seed: %s/%s then %s/%s", a.modelDigest, a.ledgerDigest, b.modelDigest, b.ledgerDigest)
	}
	if a.modelDigest == c.modelDigest {
		t.Errorf("seeds %d and %d commit the same model", small.seed, other.seed)
	}
}

// TestRoundLoopLength checks how long a pass runs: until its rounds' summed
// time reaches the seconds given, at least minRounds and in whole units, or
// exactly the rounds given, as a traced pass repeats its untraced pass's.
func TestRoundLoopLength(t *testing.T) {
	nop := func(int) error { return nil }
	sleep := func(int) error { time.Sleep(time.Millisecond); return nil }
	for _, tc := range []struct {
		o    options
		unit int
	}{
		{options{seconds: 0.05}, 7},
		{options{seconds: 0.001}, 1},
		{options{seconds: 10, rounds: 13}, 7},
	} {
		res := &result{}
		if err := roundLoop(res, tc.o, tc.unit, func() error { return nil }, nop, sleep, nop); err != nil {
			t.Fatal(err)
		}
		n := len(res.rounds)
		switch {
		case tc.o.rounds > 0:
			if n != tc.o.rounds {
				t.Errorf("%+v: ran %d rounds, want %d", tc.o, n, tc.o.rounds)
			}
		case n < minRounds || n%tc.unit != 0 || res.roundTotal() < tc.o.seconds:
			t.Errorf("%+v unit %d: ran %d rounds in %.3f s", tc.o, tc.unit, n, res.roundTotal())
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOutputMatchesSpec checks that the last output line carries exactly the
// metrics BENCHMARK.json declares, with their units, in both modes, and that
// every declared workload exists.
func TestOutputMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	w, _ := findWorkload("serve-wide")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := execute(w, small, traced, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range sum {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("summary keys %v", keys)
		}
		var got summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, got.Correct, got.Attempted, got.Failed)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(got.Metrics), len(want))
		}
		for _, m := range want {
			g, ok := got.Metrics[m.Name]
			if !ok {
				t.Errorf("traced=%v: metric %s missing", traced, m.Name)
				continue
			}
			if g.Unit != m.Unit {
				t.Errorf("traced=%v: %s unit %q, declared %q", traced, m.Name, g.Unit, m.Unit)
			}
			if !traced && g.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", m.Name)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "serve-wide", "--seconds", "0"},
		{"--workload", "serve-wide", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
