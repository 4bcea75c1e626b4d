package desis

import (
	"testing"
	"time"
)

// Satellite regression tests for Options validation: contradictory option
// combinations must fail construction loudly instead of silently running a
// different configuration than the caller asked for.

func timeQuery(id uint64) Query {
	return Query{ID: id, Pred: All(), Type: Sliding, Measure: Time, Length: 2000, Slide: 1000,
		Funcs: []FuncSpec{{Func: Sum}}}
}

// TestReorderHorizonShapeValidation: a horizon that EVERY configured query
// shape ignores is a config error — the engine would silently run
// strict-order. A partial mismatch stays legal and instead raises the
// one-shot engine.horizon_disabled gauge.
func TestReorderHorizonShapeValidation(t *testing.T) {
	session := Query{ID: 1, Pred: All(), Type: Session, Measure: Time, Gap: 500,
		Funcs: []FuncSpec{{Func: Sum}}}
	countWin := Query{ID: 2, Pred: All(), Type: Sliding, Measure: Count, Length: 10, Slide: 5,
		Funcs: []FuncSpec{{Func: Sum}}}
	opts := Options{ReorderHorizon: 100 * time.Millisecond}

	for name, qs := range map[string][]Query{
		"session-only": {session},
		"count-only":   {countWin},
		"both-ignore":  {session, countWin},
	} {
		if _, err := NewEngine(qs, opts); err == nil {
			t.Fatalf("%s: NewEngine accepted a ReorderHorizon no query shape can use", name)
		}
	}

	// Dedup disables late repair for every group regardless of shape.
	if _, err := NewEngine([]Query{timeQuery(1)}, Options{ReorderHorizon: 100 * time.Millisecond, Dedup: true}); err == nil {
		t.Fatal("NewEngine accepted ReorderHorizon together with Dedup")
	}

	// Usable shape present: accepted, no degradation signal.
	tel := NewTelemetry()
	e, err := NewEngine([]Query{timeQuery(1)}, Options{ReorderHorizon: 100 * time.Millisecond, Telemetry: tel})
	if err != nil {
		t.Fatalf("NewEngine with usable shape: %v", err)
	}
	e.Process(Event{Time: 1000, Value: 1})
	if g := tel.Gauge("engine.horizon_disabled"); g != 0 {
		t.Fatalf("engine.horizon_disabled = %d for a fully usable query set", g)
	}
}

// TestHorizonDisabledGauge: when only SOME groups ignore the horizon the
// engine runs (partial degradation is legal) but flags it once via the
// engine.horizon_disabled gauge.
func TestHorizonDisabledGauge(t *testing.T) {
	queries := []Query{
		timeQuery(1),
		{ID: 2, Pred: All(), Type: Session, Measure: Time, Gap: 500,
			Funcs: []FuncSpec{{Func: Sum}}},
	}
	tel := NewTelemetry()
	e, err := NewEngine(queries, Options{ReorderHorizon: 100 * time.Millisecond, Telemetry: tel})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if g := tel.Gauge("engine.horizon_disabled"); g != 1 {
		t.Fatalf("engine.horizon_disabled = %d, want 1 (session group forces its horizon to 0)", g)
	}
	// Late-attach replay: a registry attached after construction still
	// observes the latched signal.
	tel2 := NewTelemetry()
	e2, err := NewEngine(queries, Options{ReorderHorizon: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e2.e.AttachTelemetry(tel2.registry())
	if g := tel2.Gauge("engine.horizon_disabled"); g != 1 {
		t.Fatalf("late-attached engine.horizon_disabled = %d, want 1", g)
	}
	_ = e
}
