package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 32} {
		r := Runner{Workers: workers}
		const n = 100
		var counts [n]int32
		if err := r.ForEach(n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := (Runner{Workers: 4}).ForEach(0, func(int) error {
		t.Fatal("fn called for empty grid")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachReturnsLowestIndexError checks the advertised determinism of
// error selection: no matter the worker count, the reported error is the
// lowest-index failure among the jobs that ran.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	sentinel := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 2, 8} {
		r := Runner{Workers: workers}
		err := r.ForEach(50, func(i int) error {
			if i == 3 || i == 40 {
				return sentinel(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3 failed", workers, err)
		}
	}
}

// TestForEachCancelsAfterError checks that a failure stops dispatching
// not-yet-started jobs: with one extra worker, a long tail of jobs after
// an early error should be mostly skipped. Jobs park on the shared
// context, so dispatch is provably cancelled rather than drained — and
// unlike parking on a test-owned channel, the park always ends. (The
// previous version of this test parked on a channel only closed after
// ForEach returned, which deadlocked whenever the second worker dequeued
// a job before the cancellation landed.)
func TestForEachCancelsAfterError(t *testing.T) {
	var started int32
	err := Runner{Workers: 2}.forEach(1000, func(ctx context.Context, i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return errors.New("boom")
		}
		<-ctx.Done()
		return nil
	}, nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&started); n > 10 {
		t.Errorf("%d jobs started after early failure; cancellation not effective", n)
	}
}

// A job aborted because a sibling failed must not mask the sibling's
// error from a lower index.
func TestForEachSiblingCancelDoesNotMaskError(t *testing.T) {
	boom := errors.New("boom")
	err := Runner{Workers: 2}.forEach(2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunnerDeterminism is the headline regression test for the parallel
// sweep runner: a figure grid must produce byte-identical results no
// matter how many workers execute it. Fig1 covers the plain rate grid;
// Fig5 covers the widest scheme x pattern grid including the global
// self-tuned controller.
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := Runner{Workers: 1}
	wide := Runner{Workers: 8}
	curves := func(r Runner, spec *Spec) []Curve {
		t.Helper()
		grouped, err := r.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return specCurves(spec.Groups, grouped)
	}

	fig1 := tinySpecOf(t, "fig1", tiny, keepRates(0.005, 0.02))
	f1a, f1b := curves(serial, fig1), curves(wide, fig1)
	if !reflect.DeepEqual(f1a, f1b) {
		t.Errorf("fig1: workers=1 and workers=8 disagree\n1: %+v\n8: %+v", f1a, f1b)
	}
	ja, _ := json.Marshal(f1a)
	jb, _ := json.Marshal(f1b)
	if string(ja) != string(jb) {
		t.Errorf("fig1: serialized curves differ:\n%s\n%s", ja, jb)
	}

	fig5 := tinySpecOf(t, "fig5", tiny, keepRates(0.02))
	if f5a, f5b := curves(serial, fig5), curves(wide, fig5); !reflect.DeepEqual(f5a, f5b) {
		t.Errorf("fig5: workers=1 and workers=8 disagree")
	}
}
