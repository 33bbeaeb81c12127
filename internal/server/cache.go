package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"dmc/internal/cache"
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
// dataset under its grown content address and refreshes the "inc"
// snapshot (the resumable miss-counting state, core.Incremental) so
// the first mine of the grown dataset derives rules from counters in
// O(pairs) instead of rescanning every row.

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

// snapshot returns d's resumable mining state from the cache, if one
// was stored for exactly this content (the snapshot's row count is
// cross-checked against the dataset as a belt-and-suspenders guard on
// top of content addressing).
func (s *Server) snapshot(d *dataset) (*core.Incremental, bool) {
	hash, ok := s.cacheable(d)
	if !ok {
		return nil, false
	}
	key := cache.Key(hash, "inc", "")
	payload, ok := s.rc.Get(key)
	if !ok {
		return nil, false
	}
	inc, err := core.DecodeIncremental(bytes.NewReader(payload))
	if err != nil || inc.Rows() != d.info.Rows {
		s.rc.Remove(key)
		return nil, false
	}
	return inc, true
}

// storeSnapshot caches inc as the resumable state for content hash.
func (s *Server) storeSnapshot(hash string, inc *core.Incremental) {
	if s.rc == nil || hash == "" {
		return
	}
	var b bytes.Buffer
	if inc.EncodeTo(&b) == nil {
		_ = s.rc.Put(cache.Key(hash, "inc", ""), b.Bytes())
	}
}

// AppendResponse is the wire form of a successful row append.
type AppendResponse struct {
	DatasetInfo
	Appended    int  `json:"appended_rows"`
	Incremental bool `json:"incremental"` // miss counters resumed, not rebuilt
}

// handleAppend implements POST /v1/datasets/{name}/rows: basket lines
// in the body are appended to a resident dataset. The miss-counting
// state resumes from the cached snapshot when one matches (processing
// only the new rows — the paper's counters are resumable, which is the
// whole point) and is rebuilt in one scan otherwise; either way the
// grown dataset is committed to the store before it becomes visible,
// and the refreshed snapshot is cached under the grown content address.
// Ownership and the tenant byte quota are enforced as for a PUT of the
// grown dataset.
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
	size := residentFootprint(ones, grown.NumCols())
	if shed := s.checkDatasetQuota(tenant, name, size); shed != nil {
		s.writeShed(w, r, shed)
		return
	}

	// Resume the miss counters from the old content's snapshot, or pay
	// the one-time rebuild; then fold in only the appended rows. Without
	// a cache nothing would ever read the snapshot, so there is none.
	var inc *core.Incremental
	resumed := false
	if s.rc != nil {
		if inc, resumed = s.snapshot(d); !resumed {
			inc = core.BuildIncremental(d.m)
		}
		inc.AddMatrixRows(grown, d.m.NumRows())
	}

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
	s.storeSnapshot(hash, inc)
	s.add(name, &dataset{m: grown, info: inf, hash: hash, tenant: d.tenant, bytes: size})
	s.noteTenantUsage(tenant)
	s.metrics.appends.Inc()
	writeJSON(w, http.StatusOK, AppendResponse{DatasetInfo: inf, Appended: added, Incremental: resumed})
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
