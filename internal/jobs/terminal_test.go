package jobs

// Tests for the terminal path: the done event is emitted once the
// terminal record is durable, before compaction, so a blocked or failed
// compaction never withholds a result; a terminal job reports its band
// count without keeping per-band stats, before and after a restart.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fullview/internal/faultinject"
)

// TestReplayedDoneJobReportsAllBands is the regression for a done job
// restored from its compacted journal (which holds no band records)
// reporting bandsDone 0.
func TestReplayedDoneJobReportsAllBands(t *testing.T) {
	dir := t.TempDir()
	net := testNet(t, 70, 41)
	m1 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m1.Start()
	snap, err := m1.Submit(surveySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	before := waitTerminal(t, m1, snap.ID)
	if before.State != StateDone || before.BandsDone != 8 {
		t.Fatalf("before restart: state %s, %d/%d bands", before.State, before.BandsDone, before.Bands)
	}
	m1.Close()

	m2 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m2.Start()
	after, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateDone || after.BandsDone != after.Bands || after.Bands != 8 {
		t.Fatalf("after restart: state %s, %d/%d bands, want done 8/8", after.State, after.BandsDone, after.Bands)
	}
}

// TestTerminalJobDropsPerBandStats checks that a finished job keeps its
// band count but not its per-band stats, whatever its terminal state.
func TestTerminalJobDropsPerBandStats(t *testing.T) {
	defer faultinject.Reset()
	net := testNet(t, 60, 43)
	m := newManager(t, Config{}, realExec(t, net))
	m.Start()
	done, err := m.Submit(surveySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, done.ID)

	// Fail the third band: the failed job reports the two it completed.
	var calls atomic.Int64
	remove := faultinject.Set(faultinject.JobBand, func() error {
		if calls.Add(1) == 3 {
			return errors.New("band broke")
		}
		return nil
	})
	failed, err := m.Submit(surveySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, failed.ID)
	remove()
	if final.State != StateFailed || final.BandsDone != 2 {
		t.Fatalf("failed job: state %s, %d bands done, want failed with 2", final.State, final.BandsDone)
	}
	for _, id := range []string{done.ID, failed.ID} {
		j, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		kept := j.perBand
		j.mu.Unlock()
		if kept != nil {
			t.Errorf("terminal job %s still holds %d per-band stats", id, len(kept))
		}
	}
	if got, _ := m.Get(done.ID); got.BandsDone != 5 {
		t.Fatalf("done job reports %d bands done, want 5", got.BandsDone)
	}
}

// TestDoneEventPrecedesCompaction holds compaction on the JobCompact
// fault point: the subscriber must already have its done event and the
// job its Result, and the compaction hook must fire only once the
// compaction is released.
func TestDoneEventPrecedesCompaction(t *testing.T) {
	defer faultinject.Reset()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	remove := faultinject.Set(faultinject.JobCompact, func() error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	defer remove()
	compacted := make(chan time.Duration, 1)
	dir := t.TempDir()
	net := testNet(t, 80, 47)
	spec := surveySpec(6)
	m := newManager(t, Config{Dir: dir, Hooks: Hooks{
		JobCompacted: func(_ Kind, elapsed time.Duration) { compacted <- elapsed },
	}}, realExec(t, net))
	// Registered after newManager's Close, so it runs first and a failed
	// assertion never leaves Close waiting on the held compaction.
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, stop, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	m.Start()

	var last Event
	timeout := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case ev, ok := <-ch:
			if open = ok; ok {
				last = ev
			}
		case <-timeout:
			t.Fatal("no terminal event while the compaction is held")
		}
	}
	<-entered // the compaction is in flight and held
	if last.Type != EventState || last.State != StateDone || last.BandsDone != 6 {
		t.Fatalf("final event while compaction is held = %+v, want done 6/6", last)
	}
	got, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := wholeGrid(t, net, spec)
	if got.Result == nil || got.Result.Stats[0] != want[0] {
		t.Fatalf("result while compaction is held = %+v, want %+v", got.Result, want)
	}
	select {
	case <-compacted:
		t.Fatal("JobCompacted fired before the compaction ran")
	default:
	}
	release.Do(func() { close(gate) })
	<-compacted
	data, err := os.ReadFile(filepath.Join(dir, snap.ID+fileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("journal has %d lines after the released compaction, want 2", lines)
	}
}

// TestFailedCompactionStillDoneAcrossRestart fails the compaction: the
// subscriber still gets done, and a restart replays the uncompacted
// terminal journal as done with the same Result and every band counted.
func TestFailedCompactionStillDoneAcrossRestart(t *testing.T) {
	defer faultinject.Reset()
	remove := faultinject.Set(faultinject.JobCompact, faultinject.Error(errors.New("rename refused")))
	defer remove()
	dir := t.TempDir()
	net := testNet(t, 80, 53)
	spec := surveySpec(6)
	var compactions int
	m1 := newManager(t, Config{Dir: dir, Hooks: Hooks{
		JobCompacted: func(Kind, time.Duration) { compactions++ },
	}}, realExec(t, net))
	snap, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, stop, err := m1.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	var last Event
	for ev := range ch {
		last = ev
	}
	stop()
	if last.State != StateDone {
		t.Fatalf("final event = %+v, want done", last)
	}
	first := waitTerminal(t, m1, snap.ID)
	m1.Close()
	if compactions != 1 {
		t.Fatalf("JobCompacted fired %d times, want once for the failed compaction", compactions)
	}
	data, err := os.ReadFile(filepath.Join(dir, snap.ID+fileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1+6+1 {
		t.Fatalf("journal has %d lines, want header + 6 bands + terminal (uncompacted)", lines)
	}

	m2 := newManager(t, Config{Dir: dir}, realExec(t, net))
	m2.Start()
	got, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.Stats[0] != first.Result.Stats[0] {
		t.Fatalf("replayed %+v, want done with %+v", got, first.Result)
	}
	if got.BandsDone != 6 {
		t.Fatalf("replayed job reports %d bands done, want 6", got.BandsDone)
	}
	if m2.Resumes() != 0 {
		t.Fatalf("uncompacted terminal journal counted as a resume: %d", m2.Resumes())
	}
}
