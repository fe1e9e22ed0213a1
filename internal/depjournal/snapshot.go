package depjournal

import (
	"fmt"
	"io"

	"fullview/internal/jsonlog"
)

// stagedDep is one deployment staged for snapshot encoding: the values
// compaction would write for it. Record values and mutation slices are
// never modified in place after they enter the journal (appends only
// extend, compaction replaces whole slices), so a stagedDep copied
// under the journal lock remains a consistent view after the lock is
// released.
type stagedDep struct {
	reg        Record
	muts       []Record
	unfoldable bool
}

// stageFoldable reports whether a staged deployment's mutations could
// fold into its registration.
func stageFoldable(d stagedDep, materialize MaterializeFunc) bool {
	return len(d.muts) > 0 && !d.unfoldable &&
		(len(d.reg.Cameras) > 0 || materialize != nil)
}

// stage copies one deployment's state for snapshot encoding. Caller
// holds j.mu; the copy stays valid after it is released.
func (d *depState) stage() stagedDep {
	return stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
}

// stageLocked stages every deployment, in registration order. Caller
// holds j.mu.
func (j *Journal) stageLocked() []stagedDep {
	deps := make([]stagedDep, len(j.deps))
	for i, d := range j.deps {
		deps[i] = d.stage()
	}
	return deps
}

// canonicalize reduces one staged deployment to its snapshot form: a
// single Folded registration when the mutations fold, the registration
// and mutations verbatim otherwise. This is the canonical shape of a
// deployment's record stream — compaction writes it, SnapshotIDs
// streams it, and the per-deployment content digests hash it — so two
// replicas holding the same logical state produce identical bytes
// regardless of how their journal files got there (live appends,
// mirror batches, anti-entropy pulls, or any compaction history).
func canonicalize(d stagedDep, materialize MaterializeFunc) stagedDep {
	if stageFoldable(d, materialize) {
		if folded, ok := foldDeployment(d.reg, d.muts, materialize); ok {
			return stagedDep{reg: folded}
		}
		d.unfoldable = true
	}
	return d
}

// encodeDep writes one canonicalized deployment's record lines to w.
func encodeDep(w *jsonlog.Writer, st stagedDep) error {
	if err := w.Line(st.reg); err != nil {
		return fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
	}
	for i := range st.muts {
		if err := w.Line(st.muts[i]); err != nil {
			return fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
		}
	}
	return nil
}

// encodeSnapshot writes the compacted snapshot image of deps to w:
// the journal header, then each deployment in canonical form. This is
// THE compaction format — Compact calls it to build the replacement
// file, SnapshotIDs calls it to stream the same bytes to a peer — so a
// snapshot always replays through Open exactly like a freshly
// compacted journal. Returns the staged states as written (so
// compaction can commit them) and the record line count.
func encodeSnapshot(w *jsonlog.Writer, deps []stagedDep, materialize MaterializeFunc) ([]stagedDep, int64, error) {
	if err := w.Line(header{Version: Version, Kind: Kind}); err != nil {
		return nil, 0, fmt.Errorf("depjournal: encode header: %w", err)
	}
	out := make([]stagedDep, len(deps))
	for di, d := range deps {
		out[di] = canonicalize(d, materialize)
		if err := encodeDep(w, out[di]); err != nil {
			return nil, 0, err
		}
	}
	return out, w.Lines() - 1, nil
}

// SnapshotIDs streams the snapshot image of the listed deployments:
// the journal header, then each id's canonical record lines, in list
// order. Listing every id in registration order yields the
// byte-identical image Compact would write. Appends are not paused:
// the per-deployment state is copied under the lock (record values and
// slice headers, no camera-list deep copies), then the lock is released
// and encoding runs against the copy, so the image captures the
// journal as of the copy instant. Nothing is committed — fold results
// and unfoldable discoveries are discarded, the file is untouched.
//
// The image replays through ParseSnapshot (or Open) on its own; it is
// what the anti-entropy reconciler fetches to repair divergent
// deployments. If any id is not journaled, ErrNotFound is returned with
// nothing written to w, so a handler can still answer a clean 404.
// Returns the number of bytes written.
func (j *Journal) SnapshotIDs(w io.Writer, ids []string) (int64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	deps := make([]stagedDep, len(ids))
	for k, id := range ids {
		i, ok := j.ids[id]
		if !ok {
			j.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		deps[k] = j.deps[i].stage()
	}
	materialize := j.materialize
	j.mu.Unlock()

	lw := jsonlog.NewWriter(w)
	_, _, err := encodeSnapshot(lw, deps, materialize)
	return lw.Bytes(), err
}

// ParseSnapshot decodes a complete snapshot image — the bytes
// SnapshotIDs streamed — into its records, and checks that every
// mutation follows a registration of its id, exactly as Open would.
// Unlike Open, a torn final line is an error here, not tolerance: a
// fetched snapshot that does not parse to its last byte was truncated
// in transfer and must be refused, never half-applied.
func ParseSnapshot(data []byte) ([]Record, error) {
	recs, _, good, err := parse(data)
	if err != nil {
		return nil, err
	}
	if good != int64(len(data)) {
		return nil, fmt.Errorf("%w: truncated snapshot (%d of %d bytes parse)", ErrCorrupt, good, len(data))
	}
	if _, err := linkAll(recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// linkAll replays recs into a throwaway per-deployment state, refusing
// a mutation that does not follow a registration of its id, as Open
// does.
func linkAll(recs []Record) (*Journal, error) {
	in := &Journal{ids: make(map[string]int)}
	for _, r := range recs {
		if err := in.link(r); err != nil {
			return nil, err
		}
	}
	return in, nil
}
