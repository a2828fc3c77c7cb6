package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"

	"structmine/internal/colstore"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// Dataset appends. An append extends a registered dataset with more CSV
// rows (same header shape) without re-uploading or re-parsing what is
// already there. The dataset keeps its stable short id; its content
// hash advances deterministically (appendHash) and its epoch increments,
// so every artifact is keyed to exactly one point in the lineage and can
// never leak across an append boundary. The FD state jobs leave behind
// is keyed by the id instead, so the next epoch finds it, and stamped
// with its epoch (datasetIntermediates).
//
// Without a store an append extends the in-memory relation with
// relation.AppendCSV. With one the dataset is its file, and durability
// follows one intent-record protocol: the append record (carrying the
// body and the identity transition) is written BEFORE any dataset state
// changes; colstore.Append then publishes the post-append file next to
// the old one — making the same relation.AppendCSV call against the
// file's dictionary: one header check, one id assignment; the registry
// entry swaps; the old file is removed; and only then is the intent
// retired. A crash anywhere in between is replayed on restart by
// Registry.RecoverAppends, so appended rows are never lost and never
// applied twice.

// appendHash advances a dataset's content hash across an append:
// SHA-256 over the previous hash's hex bytes followed by the appended
// body. It is deterministic in (old contents, body), so replaying the
// same append after a crash converges on the same identity.
func appendHash(oldHash string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(oldHash))
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// AppendCSV appends CSV rows (a header line plus data rows, validated
// under the same shape checks as registration) to the dataset with the
// given id or hash, returning the post-append dataset. Appends are
// serialized (writeMu): each is a multi-step identity transition and
// interleaving two would fork the lineage.
func (g *Registry) AppendCSV(id string, body []byte) (*Dataset, error) {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()

	ds, ok := g.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, id)
	}
	meta := store.DatasetMeta{
		Hash: appendHash(ds.Hash, body), Name: ds.Name, Source: ds.Source,
		Bytes: ds.Bytes + int64(len(body)), ID: ds.ID, Epoch: ds.Epoch + 1,
	}
	var next *Dataset
	if g.st != nil {
		var err error
		if next, err = g.appendCol(ds, meta, body); err != nil {
			return nil, err
		}
	} else {
		// The extension shares the existing rows — it costs the appended
		// rows, not a copy.
		rel, _, err := relation.AppendCSV(ds.rel, body, g.lim)
		if err != nil {
			return nil, err
		}
		next = &Dataset{
			ID: ds.ID, Name: ds.Name, Hash: meta.Hash, Epoch: meta.Epoch,
			Source: ds.Source, Bytes: meta.Bytes, Storage: StorageResident,
			Summary: task.Describe(rel), rel: rel,
		}
	}
	g.mu.Lock()
	delete(g.byHash, ds.Hash)
	g.addLocked(next)
	g.mu.Unlock()
	if g.st != nil {
		// The new file is published and registered: the old one is garbage.
		// Unlinking it now is safe — a job that pinned the old table keeps
		// it mapped until it releases the pin.
		ds.handle.unpin()
		_ = g.st.FS().Remove(ds.colPath)
		_ = g.st.RetireAppendRecord(next.Hash)
	}
	obs.AppendRows.Add(uint64(next.Summary.Tuples - ds.Summary.Tuples))
	obs.AppendEpochs.Inc()
	return next, nil
}

// appendCol is the durable half of an append: intent record, then the
// post-append colstore file (full stripes of the old file are copied
// verbatim, the rest replayed with the new rows), reopened as the paged
// dataset it describes. On failure the intent is withdrawn so recovery
// does not replay an append the client saw fail. The caller holds
// writeMu, so the registry's reference keeps the old table open.
func (g *Registry) appendCol(ds *Dataset, meta store.DatasetMeta, body []byte) (*Dataset, error) {
	dir, err := g.st.ColstoreDir()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStoreWrite, err)
	}
	rec := store.AppendRecord{
		ID: meta.ID, Name: meta.Name, Source: meta.Source,
		OldHash: ds.Hash, NewHash: meta.Hash, Epoch: meta.Epoch,
		Bytes: meta.Bytes, Rows: body,
	}
	if err := g.st.PutAppendRecord(rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStoreWrite, err)
	}
	path, err := colstore.Append(dir, meta, ds.handle.table, body, g.lim, g.writeOpts())
	if err != nil {
		_ = g.st.RetireAppendRecord(meta.Hash)
		if errors.Is(err, relation.ErrShapeMismatch) {
			return nil, err // 4xx: body rejected, dataset untouched
		}
		return nil, fmt.Errorf("%w: %v", ErrStoreWrite, err)
	}
	next, err := g.openCol(path, meta.Hash)
	if err != nil {
		_ = g.st.RetireAppendRecord(meta.Hash)
		return nil, err
	}
	return next, nil
}

// RecoverAppends replays the append intents a crash left behind. Call
// BEFORE RecoverColstore, so the directory sweep only ever sees the
// settled side of each lineage. Every outcome retires the record:
// either the new file exists (the append landed before the crash —
// finish the cleanup half), or the old one does (re-apply the body), or
// neither (the lineage is gone; nothing to do).
func (g *Registry) RecoverAppends() {
	if g.st == nil {
		return
	}
	dir, err := g.st.ColstoreDir()
	if err != nil {
		return
	}
	for _, rec := range g.st.AppendRecords() {
		if g.recoverAppend(dir, rec) {
			g.mu.Lock()
			g.appendReplays++
			g.mu.Unlock()
		}
		_ = g.st.RetireAppendRecord(rec.NewHash)
	}
}

// recoverAppend settles one intent against the colstore directory,
// reporting whether its lineage was there to settle. Idempotent: a
// crash during recovery re-enters the same protocol on the next boot.
func (g *Registry) recoverAppend(dir string, rec store.AppendRecord) bool {
	oldPath := filepath.Join(dir, rec.OldHash+colstore.Ext)
	newPath := filepath.Join(dir, rec.NewHash+colstore.Ext)
	if tbl, err := colstore.Open(newPath); err == nil {
		// Applied before the crash; finish the cleanup half.
		tbl.Close()
		_ = g.st.FS().Remove(oldPath)
		return true
	}
	old, err := colstore.Open(oldPath)
	if err != nil {
		// Neither side opens: the lineage is gone (or corrupt, in which
		// case the sweep quarantines it). The intent cannot apply.
		return false
	}
	oldMeta := old.Meta()
	meta := store.DatasetMeta{
		Hash: rec.NewHash, Name: rec.Name, Source: rec.Source,
		Bytes: rec.Bytes, ID: rec.ID, Epoch: rec.Epoch,
	}
	if meta.Name == "" {
		meta.Name = oldMeta.Name
	}
	if meta.Source == "" {
		meta.Source = oldMeta.Source
	}
	if meta.ID == "" {
		meta.ID = oldMeta.ID
	}
	_, err = colstore.Append(dir, meta, old, rec.Rows, g.lim, g.writeOpts())
	old.Close()
	if err != nil {
		// The body no longer applies (corrupt record, schema drift): keep
		// the pre-append state rather than lose the dataset.
		return false
	}
	_ = g.st.FS().Remove(oldPath)
	return true
}
