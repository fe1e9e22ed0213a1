package depjournal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// snapshotJournal builds a journal exercising every snapshot shape:
// a foldable explicit deployment with mutations, a recipe deployment
// with no materialize hook (unfoldable — written verbatim), and an
// untouched registration.
func snapshotJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	if err := j.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: 2.25}}},
		{ID: "aaaa", Op: OpRemove, Remove: []int{0}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("bbbb", 10)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMutations("bbbb", []Record{
		{ID: "bbbb", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(explicitRec("cccc", 2)); err != nil {
		t.Fatal(err)
	}
	return j, path
}

// allIDs lists the journal's deployment ids in registration order: the
// SnapshotIDs argument whose image is byte-identical to Compact's.
func allIDs(j *Journal) []string {
	var ids []string
	for _, r := range j.Records() {
		ids = append(ids, r.ID)
	}
	return ids
}

// snapshotOf streams the SnapshotIDs image of ids.
func snapshotOf(t *testing.T, j *Journal, ids []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := j.SnapshotIDs(&buf, ids)
	if err != nil {
		t.Fatalf("SnapshotIDs(%v): %v", ids, err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("SnapshotIDs(%v) reported %d bytes, wrote %d", ids, n, buf.Len())
	}
	return buf.Bytes()
}

// replaySnapshot writes snapshot bytes to a fresh path and opens them
// as a journal.
func replaySnapshot(t *testing.T, data []byte) *Journal {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatalf("snapshot does not replay: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestSnapshotBitIdenticalToCompaction pins the shipping guarantee:
// the bytes SnapshotIDs streams for every id are exactly the bytes
// Compact writes locally, and the image of one id is the header plus
// exactly that deployment's lines of the compacted file — so a peer
// that pulled a deployment holds what a local compaction would.
func TestSnapshotBitIdenticalToCompaction(t *testing.T) {
	j, path := snapshotJournal(t)
	all := snapshotOf(t, j, allIDs(j))
	one := make(map[string][]byte)
	for _, id := range allIDs(j) {
		one[id] = snapshotOf(t, j, []string{id})
	}

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, disk) {
		t.Fatalf("all-ids snapshot differs from compaction:\nsnapshot:\n%s\ncompacted:\n%s", all, disk)
	}
	lines := bytes.SplitAfter(disk, []byte("\n"))
	want := make(map[string][]byte)
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if want[r.ID] == nil {
			want[r.ID] = append([]byte(nil), lines[0]...)
		}
		want[r.ID] = append(want[r.ID], line...)
	}
	for id, got := range one {
		if !bytes.Equal(got, want[id]) {
			t.Fatalf("snapshot of %s differs from its compacted lines:\nsnapshot:\n%s\ncompacted:\n%s", id, got, want[id])
		}
	}
}

// TestSnapshotReplaysToSameState: a journal opened from a snapshot
// answers Records/Lookup/Mutations exactly like the source journal
// after compaction, restricted to the ids the snapshot names — the
// state a peer serves from after pulling is the state the donor held.
func TestSnapshotReplaysToSameState(t *testing.T) {
	for _, ids := range [][]string{{"bbbb"}, {"aaaa", "bbbb", "cccc"}} {
		j, _ := snapshotJournal(t)
		pulled := replaySnapshot(t, snapshotOf(t, j, ids))

		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := allIDs(pulled); !reflect.DeepEqual(got, ids) {
			t.Fatalf("snapshot of %v replayed ids %v", ids, got)
		}
		for _, id := range ids {
			got, _ := pulled.Lookup(id)
			want, _ := j.Lookup(id)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pulled registration %s\n%+v\nwant\n%+v", id, got, want)
			}
			if got, want := pulled.Mutations(id), j.Mutations(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("pulled mutations for %s = %+v, want %+v", id, got, want)
			}
		}
		if len(ids) == 1 {
			continue
		}
		// The foldable deployment arrived folded: one registration, no
		// mutation records, the final camera list inline.
		reg, ok := pulled.Lookup("aaaa")
		if !ok || !reg.Folded || reg.BaseVersion != 2 {
			t.Fatalf("pulled aaaa = %+v, want a Folded registration at baseVersion 2", reg)
		}
		if len(reg.Cameras) != 2 {
			t.Fatalf("folded aaaa has %d cameras, want 2 (one removed)", len(reg.Cameras))
		}
	}
}

// TestSnapshotCommitsNothing: unlike Compact, SnapshotIDs must not
// touch the journal — not its file, not its in-memory mutation lists.
func TestSnapshotCommitsNothing(t *testing.T) {
	j, path := snapshotJournal(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutsBefore := j.Mutations("aaaa")

	snapshotOf(t, j, []string{"aaaa"})
	snapshotOf(t, j, allIDs(j))

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("SnapshotIDs modified the journal file")
	}
	if got := j.Mutations("aaaa"); !reflect.DeepEqual(got, mutsBefore) {
		t.Fatalf("SnapshotIDs folded the in-memory mutations: %+v", got)
	}
	// And appends still land after a snapshot.
	if err := j.Append(rec("dddd", 4)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMidAppendReplaysConsistently is the torn-read guard: a
// snapshot taken while another goroutine is appending mutations must
// replay to a consistent prefix of the final state — the registration
// with the first k mutations folded in, for some k ≤ total — never a
// torn or interleaved image. Camera 0's orientation is a marker that
// encodes k, so each snapshot is checked against the exact expected
// fold for the prefix it captured. Snapshots alternate between naming
// that one id and every id (an idle deployment registered first). Run
// with -race this also proves the copy-under-lock discipline.
func TestSnapshotMidAppendReplaysConsistently(t *testing.T) {
	path := testPath(t)
	j, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const depID, total = "dddd", 40
	reg := explicitRec(depID, 4)
	muts := make([]Record, total)
	for k := range muts {
		muts[k] = Record{ID: depID, Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: float64(k + 1)}}}
	}
	// expected[k] is the folded state after the first k mutations.
	expected := make([]Record, total+1)
	expected[0] = reg
	for k := 1; k <= total; k++ {
		folded, ok := foldDeployment(reg, muts[:k], nil)
		if !ok {
			t.Fatalf("prefix %d does not fold", k)
		}
		expected[k] = folded
	}

	idle := explicitRec("eeee", 2)
	if err := j.Append(idle); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(reg); err != nil {
		t.Fatal(err)
	}
	inputs := [][]string{{depID}, {"eeee", depID}}
	done := make(chan error, 1)
	go func() {
		for k := range muts {
			if err := j.AppendMutations(depID, muts[k:k+1]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	dir := t.TempDir()
	checkSnapshot := func(i int) int {
		ids := inputs[i%len(inputs)]
		sp := filepath.Join(dir, "snap.jsonl")
		if err := os.WriteFile(sp, snapshotOf(t, j, ids), 0o644); err != nil {
			t.Fatal(err)
		}
		replayed, err := Open(sp, Options{CompactBytes: -1})
		if err != nil {
			t.Fatalf("snapshot %d does not replay: %v", i, err)
		}
		defer replayed.Close()
		got, ok := replayed.Lookup(depID)
		if !ok {
			t.Fatalf("snapshot %d lost deployment %s", i, depID)
		}
		k := int(got.Cameras[0].Orient) // the marker the k-th mutation wrote
		if k < 0 || k > total {
			t.Fatalf("snapshot %d: marker orient %v outside [0,%d]", i, got.Cameras[0].Orient, total)
		}
		if !reflect.DeepEqual(got, expected[k]) {
			t.Fatalf("snapshot %d replayed\n%+v\nwant the k=%d prefix fold\n%+v", i, got, k, expected[k])
		}
		if replayed.Mutations(depID) != nil {
			t.Fatalf("snapshot %d shipped unfolded mutations", i)
		}
		if got := allIDs(replayed); !reflect.DeepEqual(got, ids) {
			t.Fatalf("snapshot %d of %v replayed ids %v", i, ids, got)
		}
		if len(ids) > 1 {
			if got, _ := replayed.Lookup("eeee"); !reflect.DeepEqual(got, idle) {
				t.Fatalf("snapshot %d replayed the idle deployment as %+v", i, got)
			}
		}
		return k
	}

	lastK := 0
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// One final snapshot with all appends landed.
			if k := checkSnapshot(i); k != total {
				t.Fatalf("final snapshot captured prefix %d, want %d", k, total)
			}
			if lastK == 0 {
				t.Log("note: no snapshot overlapped the appends (scheduler timing); prefix consistency still verified")
			}
			return
		default:
		}
		k := checkSnapshot(i)
		if k < lastK {
			t.Fatalf("snapshot %d went backwards: prefix %d after %d", i, k, lastK)
		}
		lastK = k
	}
}

// TestSnapshotClosed: a closed journal refuses to snapshot.
func TestSnapshotClosed(t *testing.T) {
	j, _ := snapshotJournal(t)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.SnapshotIDs(new(bytes.Buffer), []string{"aaaa"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SnapshotIDs on closed journal = %v, want ErrClosed", err)
	}
}
