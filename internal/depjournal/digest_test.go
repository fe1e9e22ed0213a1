package depjournal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// TestDigestInvariantAcrossHistories pins the anti-entropy foundation:
// a deployment's digest is a function of its logical state, not of how
// the journal file reached it. A live journal (registration + mutation
// appends), a compacted one (mutations folded), and one replayed from
// a snapshot all digest identically.
func TestDigestInvariantAcrossHistories(t *testing.T) {
	j, _ := snapshotJournal(t)
	before := j.Digests()
	if len(before) != 3 {
		t.Fatalf("digests for %d deployments, want 3", len(before))
	}
	for id, d := range before {
		if len(d.Digest) != 64 {
			t.Fatalf("digest[%s] = %q, want 64 hex chars", id, d.Digest)
		}
	}

	// Snapshot-replayed journal (what a peer that pulled every id holds).
	peer := replaySnapshot(t, snapshotOf(t, j, allIDs(j)))
	if got := peer.Digests(); !digestsEqual(got, before) {
		t.Fatalf("snapshot-replayed digests %v, want %v", got, before)
	}

	// Compaction folds mutations in place; the digest must not move.
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := j.Digests(); !digestsEqual(got, before) {
		t.Fatalf("post-compaction digests %v, want %v", got, before)
	}

	// A new mutation must move exactly its deployment's digest and bump
	// its version by one.
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: -1}}},
	}); err != nil {
		t.Fatal(err)
	}
	after := j.Digests()
	if after["aaaa"].Digest == before["aaaa"].Digest {
		t.Fatal("mutation did not change the deployment's digest")
	}
	if after["aaaa"].Version != before["aaaa"].Version+1 {
		t.Fatalf("version %d after one mutation, want %d", after["aaaa"].Version, before["aaaa"].Version+1)
	}
	for _, id := range []string{"bbbb", "cccc"} {
		if after[id] != before[id] {
			t.Fatalf("mutation of aaaa moved digest[%s]", id)
		}
	}
}

func digestsEqual(a, b map[string]DigestInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDigestIsHashOfSnapshotID pins the wire contract between the
// digest and the snapshot route: a deployment's digest is exactly the
// sha256 of the record lines SnapshotIDs streams for it alone (header
// excluded), and the image of several ids is the header followed by
// those per-id bodies in list order — so a replica that installs a
// fetched snapshot lands on the peer's digests by construction.
func TestDigestIsHashOfSnapshotID(t *testing.T) {
	j, _ := snapshotJournal(t)
	var bodies []byte
	for _, id := range []string{"aaaa", "bbbb", "cccc"} {
		hdr, body, ok := bytes.Cut(snapshotOf(t, j, []string{id}), []byte("\n"))
		if !ok {
			t.Fatalf("SnapshotIDs(%s) wrote no header line", id)
		}
		sum := sha256.Sum256(body)
		d, ok := j.Digest(id)
		if !ok {
			t.Fatalf("Digest(%s) not found", id)
		}
		if want := hex.EncodeToString(sum[:]); d.Digest != want {
			t.Fatalf("digest[%s] = %s, want hash of SnapshotIDs body %s", id, d.Digest, want)
		}
		if bodies == nil {
			bodies = append(append([]byte(nil), hdr...), '\n')
		}
		bodies = append(bodies, body...)
	}
	if all := snapshotOf(t, j, allIDs(j)); !bytes.Equal(all, bodies) {
		t.Fatalf("all-ids image is not the header plus the per-id bodies:\n%s\nwant\n%s", all, bodies)
	}
}

// TestSnapshotIDNotFound: any unknown id is ErrNotFound with nothing
// written, so the serving handler can still answer a clean 404.
func TestSnapshotIDNotFound(t *testing.T) {
	j, _ := snapshotJournal(t)
	for _, ids := range [][]string{{"zzzz"}, {"aaaa", "zzzz", "bbbb"}} {
		var buf bytes.Buffer
		if _, err := j.SnapshotIDs(&buf, ids); !errors.Is(err, ErrNotFound) {
			t.Fatalf("SnapshotIDs(%v): err %v, want ErrNotFound", ids, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("SnapshotIDs(%v): %d bytes written before the not-found answer", ids, buf.Len())
		}
	}
}

// TestParseSnapshotRefusesTruncation: ParseSnapshot is the strict
// variant of the replay parser — a byte-truncated image (a cut
// transfer) is ErrCorrupt, where Open would tolerate the torn tail.
func TestParseSnapshotRefusesTruncation(t *testing.T) {
	j, _ := snapshotJournal(t)
	full := snapshotOf(t, j, []string{"aaaa"})
	recs, err := ParseSnapshot(full)
	if err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}
	if len(recs) == 0 || recs[0].ID != "aaaa" || recs[0].Op != "" {
		t.Fatalf("parsed %+v", recs)
	}
	if _, err := ParseSnapshot(full[:len(full)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot parsed (err %v), want ErrCorrupt", err)
	}
}

// fetch parses the SnapshotIDs image of ids — what an anti-entropy
// pull hands to Reinstall.
func fetch(t *testing.T, j *Journal, ids ...string) []Record {
	t.Helper()
	recs, err := ParseSnapshot(snapshotOf(t, j, ids))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestReinstallConvergesDivergentJournal drives the full anti-entropy
// repair cycle at the journal layer: a replica that missed mirror
// records fetches the owner's snapshot of the two divergent ids,
// Reinstalls it in one batch, and must land on the owner's digests — and keep it across a restart, since
// Reinstall relies on replay's last-wins rule.
func TestReinstallConvergesDivergentJournal(t *testing.T) {
	owner, _ := snapshotJournal(t)

	// The divergent replica has aaaa's registration but missed both of
	// its mutations, and never saw cccc at all.
	path := testPath(t)
	replica, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Append(explicitRec("aaaa", 3)); err != nil {
		t.Fatal(err)
	}
	ownerDigests := owner.Digests()
	repDigests := replica.Digests()
	if repDigests["aaaa"] == ownerDigests["aaaa"] {
		t.Fatal("test premise broken: replica already converged")
	}

	if stale, err := replica.Reinstall(fetch(t, owner, "aaaa", "cccc")); err != nil || stale != nil {
		t.Fatalf("Reinstall: stale %v, err %v", stale, err)
	}
	for _, id := range []string{"aaaa", "cccc"} {
		got, ok := replica.Digest(id)
		if !ok || got != ownerDigests[id] {
			t.Fatalf("digest[%s] = %+v after reinstall, want %+v", id, got, ownerDigests[id])
		}
		gotV, _ := replica.Version(id)
		if gotV != ownerDigests[id].Version {
			t.Fatalf("Version(%s) = %d, want %d", id, gotV, ownerDigests[id].Version)
		}
	}

	// The repair must be durable: a reopened replica replays the
	// reinstalled registration as last-wins and keeps the digests.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, id := range []string{"aaaa", "cccc"} {
		if got, ok := reopened.Digest(id); !ok || got != ownerDigests[id] {
			t.Fatalf("reopened digest[%s] = %+v, want %+v", id, got, ownerDigests[id])
		}
	}
}

// TestReinstallRefusesStale pins the anti-entropy TOCTOU guard: the
// reconciler compares versions against a digest map captured at round
// start, so a write that lands between the comparison and the install
// must not be rolled back by the now-stale fetch. Reinstall re-checks
// each deployment under the journal lock, skips (and reports) anything
// not strictly ahead, and still installs the rest of the batch.
func TestReinstallRefusesStale(t *testing.T) {
	owner, _ := snapshotJournal(t)
	replica, _ := snapshotJournal(t) // identical history: aaaa at version 2

	// Equal version: nothing to repair, the install is skipped with
	// nothing written.
	recs := fetch(t, owner, "aaaa")
	size := replica.Size()
	if stale, err := replica.Reinstall(recs); err != nil || !reflect.DeepEqual(stale, []string{"aaaa"}) {
		t.Fatalf("equal-version reinstall: stale %v, err %v, want [aaaa]", stale, err)
	}
	if replica.Size() != size {
		t.Fatal("refused reinstall wrote bytes")
	}

	// The race itself: the replica advances past the fetched snapshot
	// (a write landed after the digest comparison). The stale install
	// must be refused and the newer local copy kept.
	if err := replica.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1.5}}},
	}); err != nil {
		t.Fatal(err)
	}
	ahead, _ := replica.Digest("aaaa")
	size = replica.Size()
	if stale, err := replica.Reinstall(recs); err != nil || !reflect.DeepEqual(stale, []string{"aaaa"}) {
		t.Fatalf("behind-version reinstall: stale %v, err %v, want [aaaa]", stale, err)
	}
	if replica.Size() != size {
		t.Fatal("refused reinstall wrote bytes")
	}
	if got, _ := replica.Digest("aaaa"); got != ahead {
		t.Fatalf("refused reinstall moved the digest: %+v, want %+v", got, ahead)
	}

	// A mixed batch: aaaa is still stale, bbbb and cccc moved ahead on
	// the owner. The stale id is skipped and reported; the others
	// install.
	for _, id := range []string{"bbbb", "cccc"} {
		if err := owner.AppendMutations(id, []Record{
			{ID: id, Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 0.75}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := replica.Reinstall(fetch(t, owner, "aaaa", "bbbb", "cccc"))
	if err != nil || !reflect.DeepEqual(stale, []string{"aaaa"}) {
		t.Fatalf("mixed reinstall: stale %v, err %v, want [aaaa]", stale, err)
	}
	if got, _ := replica.Digest("aaaa"); got != ahead {
		t.Fatalf("mixed reinstall moved the stale digest: %+v, want %+v", got, ahead)
	}
	for _, id := range []string{"bbbb", "cccc"} {
		want, _ := owner.Digest(id)
		if got, _ := replica.Digest(id); got != want {
			t.Fatalf("mixed reinstall: digest[%s] %+v, want %+v", id, got, want)
		}
	}

	// A strictly-ahead fetch still installs: the guard gates rollback,
	// not repair.
	if err := owner.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: -2}}},
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 1, Orient: 0.5}}},
	}); err != nil {
		t.Fatal(err)
	}
	if stale, err := replica.Reinstall(fetch(t, owner, "aaaa")); err != nil || stale != nil {
		t.Fatalf("strictly-ahead reinstall: stale %v, err %v", stale, err)
	}
	want, _ := owner.Digest("aaaa")
	if got, _ := replica.Digest("aaaa"); got != want {
		t.Fatalf("digest %+v after ahead reinstall, want %+v", got, want)
	}
}

// TestReinstallValidation: malformed record streams are refused whole,
// before anything is written.
func TestReinstallValidation(t *testing.T) {
	j, _ := snapshotJournal(t)
	size := j.Size()
	cases := []struct {
		name string
		recs []Record
	}{
		{"empty", nil},
		{"mutation first", []Record{{ID: "aaaa", Op: OpRemove, Remove: []int{0}}}},
		{"mutation of another id", []Record{{ID: "zzzz", BaseVersion: 9}, {ID: "bbbb", Op: OpRemove, Remove: []int{0}}}},
		{"second registration", []Record{{ID: "zzzz", BaseVersion: 9}, {ID: "zzzz", BaseVersion: 9}}},
		{"no id", []Record{{ID: "zzzz", BaseVersion: 9}, {BaseVersion: 9}}},
	}
	for _, tc := range cases {
		if _, err := j.Reinstall(tc.recs); err == nil {
			t.Errorf("%s: Reinstall accepted", tc.name)
		}
	}
	if j.Size() != size || j.Has("zzzz") {
		t.Fatal("refused reinstalls wrote records")
	}
}

// TestVersionCounts: logical versions count mutation records and
// survive folding (BaseVersion carries the folded count).
func TestVersionCounts(t *testing.T) {
	j, _ := snapshotJournal(t)
	v, ok := j.Version("aaaa")
	if !ok || v != 2 {
		t.Fatalf("Version(aaaa) = %d,%v, want 2", v, ok)
	}
	if _, ok := j.Version("zzzz"); ok {
		t.Fatal("Version of unknown id reported ok")
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Version("aaaa"); v != 2 {
		t.Fatalf("post-fold Version(aaaa) = %d, want 2", v)
	}
	if err := j.AppendMutations("aaaa", []Record{
		{ID: "aaaa", Op: OpReaim, Reaim: []ReaimOp{{I: 0, Orient: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Version("aaaa"); v != 3 {
		t.Fatalf("Version(aaaa) = %d after folded+1, want 3", v)
	}
}
