package server

import (
	"errors"
	"fmt"
	"net/http"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/store"
)

// The cache integration: every dataset carries its content address
// (the store's blob hash, or the same hash computed directly for
// memory-only datasets), and mine results are cached under
// (hash, family, canonical params). Because the address changes with
// the bytes, a PUT overwrite, a DELETE + re-upload, or a recovery to
// different content can never serve a stale rule set — the old entries
// are simply never looked up again and age out of the LRU.
//
// Append-only growth rides the same identity: POST rows re-keys the
// dataset under its grown content address. Whether or not the server
// has a cache, the grown registration also holds its miss counters
// (dataset.inc, a core.Incremental) where they fit: the append folds
// its batch into a copy of the base's, so the first mine of the grown
// dataset derives its rules from them in O(pairs) instead of rescanning
// every row. The counters are never encoded or cached; a restart loses
// them, and the first append after it builds them again.

// paramsKey canonicalizes the parameters that determine a rule set.
// workers only changes the schedule and limit only truncates the
// response, so neither belongs in the key. The column shard does: a
// fleet worker's partial result holds only the rules its range owns and
// must never alias the full-mine entry under the same (hash, params).
// Its suffix appears only when set, keeping full-mine keys — and any
// cache entries persisted under them — unchanged.
func (p params) paramsKey() string {
	k := fmt.Sprintf("t=%d ms=%d", p.threshold, p.minSupport)
	if p.shard != nil {
		k += fmt.Sprintf(" cols=%d-%d", p.shard.Lo, p.shard.Hi)
	}
	return k
}

// cacheable reports whether d's mine results can be cached, and under
// which content address.
func (s *Server) cacheable(d *dataset) (string, bool) {
	if s.rc == nil || d.hash == "" {
		return "", false
	}
	return d.hash, true
}

// AppendResponse is the wire form of a successful row append.
type AppendResponse struct {
	DatasetInfo
	Appended    int  `json:"appended_rows"`
	Incremental bool `json:"incremental"` // miss counters folded into the base's, not rebuilt
}

// handleAppend implements POST /v1/datasets/{name}/rows: basket lines
// in the body are appended to a resident dataset. The grown dataset
// holds miss counters where they fit (counts): the base's, with only
// the new rows folded into a copy — the paper's counters are
// resumable, which is the whole point — or, when the base holds none,
// counters built in one scan. Either way the grown dataset
// is committed to the store before it becomes visible.
// Ownership and the tenant byte quota are enforced as for a PUT of the
// grown dataset; the counters it holds count toward that quota.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	d, ok := s.getFor(tenant, name)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "no dataset %q", name)
		return
	}
	if d.m == nil {
		writeErr(w, r, http.StatusBadRequest, "dataset %q is file-backed (streamed); appending needs a resident dataset", name)
		return
	}
	// One append at a time per server: appends read-modify-write the
	// dataset registration and the store entry, and interleaving two
	// would lose one's rows.
	if s.appendQueued != nil {
		s.appendQueued()
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	// Re-fetch under the append lock — a concurrent append, PUT or
	// DELETE may have swapped the registration since the check above,
	// down to another tenant's dataset under the same name.
	d, ok = s.getFor(tenant, name)
	if !ok || d.m == nil {
		writeErr(w, r, http.StatusConflict, "dataset %q changed while the append was queued; retry", name)
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.maxUploadBytes())
	grown, err := matrix.ExtendBaskets(d.m, body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, r, http.StatusRequestEntityTooLarge, "body exceeds the %d-byte upload limit", tooBig.Limit)
			return
		}
		writeErr(w, r, http.StatusBadRequest, "parsing appended baskets: %v", err)
		return
	}
	added := grown.NumRows() - d.m.NumRows()
	if added == 0 {
		writeErr(w, r, http.StatusBadRequest, "append body holds no transactions")
		return
	}
	// The base's ones are known; count only the appended rows'.
	ones := d.info.Ones
	for i := d.m.NumRows(); i < grown.NumRows(); i++ {
		ones += grown.RowWeight(i)
	}
	size := core.Footprint(ones, grown.NumCols())
	if shed := s.checkDatasetQuota(tenant, name, size); shed != nil {
		s.writeShed(w, r, shed)
		return
	}

	inc, resumed := s.counts(d, grown, min(size, s.byteRoom(tenant, name)-size))

	inf := DatasetInfo{Name: name, Rows: grown.NumRows(), Cols: grown.NumCols(), Ones: ones, Labeled: grown.Labels() != nil}
	var hash string
	if s.st != nil {
		// d.hash addresses d.m, the prefix of grown, so the store can
		// splice the new rows onto the blob it holds at that address.
		e, err := s.st.Append(name, d.hash, grown)
		if err != nil {
			writeStoreErr(w, r, "persisting appended dataset", err)
			return
		}
		inf.Durable = true
		hash = e.Hash
		size = e.Size
	} else if s.wantHash() {
		if h, err := store.ContentHash(grown); err == nil {
			hash = h
		}
	}
	if inc != nil {
		// The dataset holds its counters: bill them with its bytes.
		size += int64(inc.Pairs()) * core.PairBytes
	}
	s.add(name, &dataset{m: grown, inc: inc, info: inf, hash: hash, tenant: d.tenant, bytes: size})
	s.noteTenantUsage(tenant)
	s.metrics.appends.Inc()
	writeJSON(w, http.StatusOK, AppendResponse{DatasetInfo: inf, Appended: added, Incremental: resumed})
}

// counts returns the miss counters of grown, whose first rows are d's,
// and whether they were folded from d's held counters (true) or built
// (false). limit is the bytes they may take: handleAppend passes the
// bytes admission charges a resident mine of grown, or less when the
// tenant's byte quota leaves less room beside the grown dataset. counts
// returns nil when their bound (core.PairBound, billed at
// core.PairBytes a pair) exceeds limit, or when the brownout ledger
// refuses those bytes: that append still commits, and later mines of
// the dataset scan through its memo. The bound is checked before
// anything is built, so a wide sparse dataset never pays for counters
// that would not fit; counts it once dropped are not built again until
// they fit.
func (s *Server) counts(d *dataset, grown *matrix.Matrix, limit int64) (*core.Incremental, bool) {
	from, held := 0, 0
	if d.inc != nil {
		from, held = d.m.NumRows(), d.inc.Pairs()
	}
	need := core.PairBound(grown, from, held) * core.PairBytes
	if need > limit {
		return nil, false
	}
	release, brownout := s.admitResident(need)
	if brownout {
		return nil, false
	}
	defer release()
	if d.inc == nil {
		return core.BuildIncremental(grown), false
	}
	return d.inc.Folded(grown, from), true
}

// handleDelete implements DELETE /v1/datasets/{name}. Durable datasets
// are removed from the store first (visibility follows durability, in
// both directions). Cache entries need no invalidation: they are keyed
// by content, and the content is gone from the lookup path.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	d, ok := s.getFor(tenant, name)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "no dataset %q", name)
		return
	}
	if s.st != nil && d.info.Durable {
		if err := s.st.Delete(name); err != nil && !errors.Is(err, store.ErrNotFound) {
			writeStoreErr(w, r, "deleting dataset", err)
			return
		}
	}
	s.mu.Lock()
	gone := s.datasets[name]
	delete(s.datasets, name)
	s.metrics.datasets.Set(int64(len(s.datasets)))
	s.mu.Unlock()
	if gone != nil {
		s.kept.close(gone.slot)
	}
	s.noteTenantUsage(tenant)
	w.WriteHeader(http.StatusNoContent)
}
