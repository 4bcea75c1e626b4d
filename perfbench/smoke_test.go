package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"desis/internal/event"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the output check passed and that the last printed line
// carries every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			cfg := config{workload: w.Name, seed: 3, trace: trace, events: 6000}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := printReport(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCheckCountsWrongWindows shows the output check catches each kind of
// wrong output: a missing, a duplicated, an extra and a wrong window.
func TestCheckCountsWrongWindows(t *testing.T) {
	qs := treeCatalog("average")[:2] // key 0: tumbling(1s), tumbling(5s)
	evs := []feedStep{{adv: 12_000}}
	for i := int64(0); i < 100; i++ {
		evs[0].evs = append(evs[0].evs, evAt(i*100, float64(i)))
	}
	ref, err := buildReference(qs, evs)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]rec(nil), ref.recs...)
	if failed, km := ref.check(got); failed != 0 || km != 0 {
		t.Fatalf("reference against itself: failed %d, key mismatches %d", failed, km)
	}
	missing := got[1:]
	dup := append(append([]rec(nil), got...), got[0])
	extra := append(append([]rec(nil), got...), rec{q: 1, start: 99_000, end: 100_000, nv: 1})
	wrong := append([]rec(nil), got...)
	wrong[2].v[0] *= 1 + 1e-6
	for name, c := range map[string][]rec{"missing": missing, "duplicate": dup, "extra": extra, "wrong value": wrong} {
		if failed, _ := ref.check(c); failed != 1 {
			t.Errorf("%s: failed = %d, want 1", name, failed)
		}
	}
	rekeyed := append([]rec(nil), got...)
	rekeyed[0].key = 7
	if failed, km := ref.check(rekeyed); failed != 0 || km != 1 {
		t.Errorf("wrong Result.Key: failed %d, key mismatches %d; want 0 and 1", failed, km)
	}
}

func evAt(t int64, v float64) event.Event { return event.Event{Time: t, Value: v} }
