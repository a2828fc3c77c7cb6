package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"structmine/internal/colstore"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// ErrDatasetLimit reports that the registry is at its configured
// capacity and refuses to register another dataset.
var ErrDatasetLimit = errors.New("server: dataset limit reached")

// Storage classes of a registered dataset. A dataset's class follows
// from the server alone and never changes during its life: paged when
// the server has a durable store, resident when it does not.
const (
	// StorageResident marks a dataset whose parsed relation is held in
	// memory: every dataset of a server without a store.
	StorageResident = "resident"
	// StoragePaged marks a dataset that is its colstore file, read
	// page-at-a-time through the relation.Columns interface: every
	// dataset of a server with a store. Every single-dataset task runs
	// over it.
	StoragePaged = "paged"
)

// Dataset is one registered relation instance: its parsed relation
// without a durable store, its open colstore file with one. The exported
// (JSON) fields are immutable for the lifetime of a *Dataset value: an
// append replaces the registry entry with a new value rather than
// mutating the old one, so handlers may marshal the pointers they hold
// without locking.
type Dataset struct {
	// ID is the short display address: a prefix of the registration
	// hash, extended just far enough to be unambiguous among registered
	// datasets. Unlike Hash it is stable across appends — it is the
	// handle clients keep.
	ID   string `json:"id"`
	Name string `json:"name"`
	// Hash identifies the dataset's current contents: the full SHA-256
	// of the CSV bytes at registration, advanced deterministically by
	// every append (appendHash). It keys the registry, prefixes every
	// cache key, and is itself accepted anywhere an id is.
	Hash string `json:"hash"`
	// Epoch counts applied appends; (Hash, Epoch) changes together, so
	// artifacts and mining state can never leak across append
	// boundaries.
	Epoch int `json:"epoch"`
	// Source records where the data came from ("upload" or a file path).
	Source string `json:"source"`
	// Bytes is the size of the registered CSV source — the residency
	// cost proxy behind the structmined_dataset_resident_bytes gauge.
	// For paged datasets it comes from the colstore tail.
	Bytes int64 `json:"bytes"`
	// Storage is the dataset's tier: StorageResident or StoragePaged.
	Storage string               `json:"storage"`
	Summary *task.DescribeResult `json:"summary"`

	rel     *relation.Relation // resident: the parsed relation (nil when paged)
	colPath string             // paged: the dataset's colstore file
	handle  *pagedHandle       // paged: the open table
}

// pagedHandle owns a paged dataset's open colstore table and keeps it
// mapped while anyone holds a reference. The registered dataset holds
// one from the start and every job that reads the table pins another; an
// append drops the dataset's (the file is replaced and unlinked), so the
// table is unmapped when the last job admitted before the append has
// finished with it.
type pagedHandle struct {
	mu    sync.Mutex
	table *colstore.Table // nil once the last reference is gone
	refs  int
}

// pin returns the open table, holding it mapped until unpin; nil once
// the table is closed. A registered dataset's handle is never closed:
// the registry holds a reference until an append retires the dataset.
func (h *pagedHandle) pin() *colstore.Table {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.table != nil {
		h.refs++
	}
	return h.table
}

func (h *pagedHandle) unpin() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refs--; h.refs == 0 {
		h.table.Close()
		h.table = nil
	}
}

// Registry owns the registered datasets, keyed on the full content
// hash. Short ids are aliases: a hash prefix extended on collision,
// never silently resolving to a different dataset's content. All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byHash map[string]*Dataset
	alias  map[string]string // short id → full hash
	lim    relation.Limits
	max    int // dataset-count cap, paged and resident alike (0 = unlimited)

	// prim serves single-attribute primitives of paged datasets across
	// jobs, keyed (hash, epoch, attr); nil disables it.
	prim *primcache.Cache

	// st, when non-nil, makes every dataset paged: registration writes
	// the dataset's colstore file and serves it from there, so a
	// restarted server re-adopts it without re-parsing the CSV.
	st *store.Store

	// Boot recovery counters (RecoverAppends, RecoverColstore) and the
	// error that stopped the colstore sweep, guarded by mu.
	recovered     int
	appendReplays int
	recoverErr    error

	// writeMu serializes every change to the set of dataset files. An
	// append is a multi-step identity transition (intent record, new file,
	// old-file removal) and interleaving two would fork the lineage; a
	// registration decides "not registered, not full" and writes its file
	// under it, so a refused or raced one leaves no file. g.mu nests inside.
	writeMu sync.Mutex
}

// shortIDLen is the initial alias length: 12 hex digits of SHA-256.
const shortIDLen = 12

// NewRegistry returns an empty registry whose CSV parsing enforces lim
// and which holds at most max datasets (0 = unlimited).
func NewRegistry(lim relation.Limits, max int) *Registry {
	return &Registry{
		byHash: map[string]*Dataset{},
		alias:  map[string]string{},
		lim:    lim,
		max:    max,
	}
}

// assignIDLocked picks the shortest prefix of hash (starting at
// shortIDLen) that does not alias a different dataset's hash. The
// caller holds g.mu; hash itself is not yet registered, so the loop
// always terminates — the full hash is unique by construction.
func (g *Registry) assignIDLocked(hash string) string {
	for n := shortIDLen; n <= len(hash); n += 4 {
		id := hash[:n]
		if prior, ok := g.alias[id]; !ok || prior == hash {
			return id
		}
	}
	return hash
}

// claimIDLocked returns the dataset's stable id: the preferred one
// (recovered from a colstore tail) when it is well-formed
// and not claimed by a different lineage, else a fresh hash prefix.
// The caller holds g.mu.
func (g *Registry) claimIDLocked(preferred, hash string) string {
	if preferred != "" && preferred == filepath.Base(preferred) {
		if prior, ok := g.alias[preferred]; !ok || prior == hash {
			return preferred
		}
	}
	return g.assignIDLocked(hash)
}

func (g *Registry) writeOpts() colstore.WriteOptions {
	return colstore.WriteOptions{FS: g.st.FS(), Fsync: g.st.FsyncEnabled()}
}

// addLocked enters a dataset under its hash and id. The caller holds
// g.mu.
func (g *Registry) addLocked(ds *Dataset) {
	g.byHash[ds.Hash] = ds
	g.alias[ds.ID] = ds.Hash
}

// admit reports why hash needs no registration work: it is registered
// already (the dataset is returned), or the registry is at its cap.
func (g *Registry) admit(hash string) (*Dataset, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if prior, ok := g.byHash[hash]; ok {
		return prior, nil
	}
	if g.max > 0 && len(g.byHash) >= g.max {
		return nil, fmt.Errorf("%w (%d registered)", ErrDatasetLimit, len(g.byHash))
	}
	return nil, nil
}

// RegisterCSV parses CSV bytes and registers the resulting relation. It
// is idempotent on content: re-registering the same bytes returns the
// existing dataset (and reports created=false). Without a store the
// parse is the dataset; with one the parse is written to the dataset's
// colstore file, which is opened and served from then on.
func (g *Registry) RegisterCSV(name, source string, data []byte) (ds *Dataset, created bool, err error) {
	return g.registerCSV(name, source, data, contentHash(data))
}

// contentHash is a dataset's hash: the hex SHA-256 of its CSV bytes.
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// registerCSV is RegisterCSV for bytes whose contentHash the caller has
// already computed (the upload handler routes on it first).
func (g *Registry) registerCSV(name, source string, data []byte, hash string) (ds *Dataset, created bool, err error) {
	// Answer a re-registration, and refuse at the cap, before paying for
	// the parse; writeMu below makes the same check final.
	if prior, err := g.admit(hash); prior != nil || err != nil {
		return prior, false, err
	}
	if name == "" {
		name = "dataset-" + hash[:shortIDLen]
	}
	rel, err := relation.ParseCSV(name, data, g.lim)
	if err != nil {
		return nil, false, err
	}
	var summary *task.DescribeResult
	if g.st == nil {
		summary = task.Describe(rel)
	}

	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	if prior, err := g.admit(hash); prior != nil || err != nil { // lost a race while parsing
		return prior, false, err
	}
	g.mu.RLock()
	id := g.assignIDLocked(hash)
	g.mu.RUnlock()
	if g.st == nil {
		ds = &Dataset{
			ID: id, Name: name, Hash: hash, Source: source, Bytes: int64(len(data)),
			Storage: StorageResident, Summary: summary, rel: rel,
		}
	} else {
		// Durability before registration: if the dataset file cannot be
		// written the registration fails outright, so the server never
		// carries datasets a restart would silently forget. g.mu is not
		// held across the write — lookups go on — and nothing can enter
		// this hash or fill the registry meanwhile: every insert takes
		// writeMu.
		meta := store.DatasetMeta{Hash: hash, Name: name, Source: source, Bytes: int64(len(data)), ID: id}
		dir, err := g.st.ColstoreDir()
		var path string
		if err == nil {
			path, err = colstore.WriteFromRelation(dir, meta, rel, g.writeOpts())
		}
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrStoreWrite, err)
		}
		if ds, err = g.openCol(path, hash); err != nil {
			return nil, false, err
		}
	}
	g.mu.Lock()
	g.addLocked(ds)
	g.mu.Unlock()
	return ds, true, nil
}

// openCol opens a colstore file as a not-yet-registered paged dataset:
// identity, metadata and summary all come from the self-describing
// file. A file that does not open, names another hash, or cannot be
// described is quarantined. ID holds the id the file prefers; the
// caller claims it under g.mu.
func (g *Registry) openCol(path, hash string) (*Dataset, error) {
	fail := func(err error) (*Dataset, error) {
		g.st.Quarantine(path)
		return nil, fmt.Errorf("%w: %v", ErrStoreWrite, err)
	}
	tbl, err := colstore.Open(path)
	if err != nil {
		return fail(err)
	}
	meta := tbl.Meta()
	if meta.Hash != hash {
		tbl.Close()
		return fail(fmt.Errorf("%s holds dataset %s", path, meta.Hash))
	}
	summary, err := task.DescribeColumns(tbl)
	if err != nil {
		tbl.Close()
		return fail(err)
	}
	return &Dataset{
		ID: meta.ID, Name: meta.Name, Hash: hash, Epoch: meta.Epoch,
		Source: meta.Source, Bytes: meta.Bytes, Storage: StoragePaged,
		Summary: summary, colPath: path,
		handle: &pagedHandle{table: tbl, refs: 1},
	}, nil
}

// RecoverColstore sweeps the colstore directory at boot: leftover temp
// files are removed, foreign or corrupt files are quarantined, and
// every valid file whose content is not already registered is adopted
// as the paged dataset it describes. Call after RecoverAppends so the
// sweep only sees the settled side of each lineage. When the directory
// cannot be made or listed the sweep adopts nothing, and RecoverErr
// reports why.
func (g *Registry) RecoverColstore() {
	if g.st == nil {
		return
	}
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	fsys := g.st.FS()
	dir, err := g.st.ColstoreDir()
	var names []string
	if err == nil {
		names, err = fsys.ReadDir(dir)
	}
	if err != nil {
		g.mu.Lock()
		g.recoverErr = fmt.Errorf("colstore sweep: %w", err)
		g.mu.Unlock()
		return
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, store.TempPrefix) {
			_ = fsys.Remove(path) // torn write from a previous life; the next boot retries
			continue
		}
		if !strings.HasSuffix(name, colstore.Ext) {
			g.st.Quarantine(path)
			continue
		}
		hash := strings.TrimSuffix(name, colstore.Ext)
		if prior, err := g.admit(hash); prior != nil || err != nil {
			continue // already registered, or the registry is full
		}
		ds, err := g.openCol(path, hash)
		if err != nil {
			continue
		}
		g.mu.Lock()
		ds.ID = g.claimIDLocked(ds.ID, hash)
		g.addLocked(ds)
		g.recovered++
		g.mu.Unlock()
	}
}

// Recovered reports what the last boot's recovery did: datasets adopted
// from colstore files, and append intents settled by replay.
func (g *Registry) Recovered() (datasets, appendReplays int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.recovered, g.appendReplays
}

// RecoverErr returns the error that stopped the last boot's colstore
// sweep, or nil when the sweep listed the directory.
func (g *Registry) RecoverErr() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.recoverErr
}

// RegisterPath reads a CSV file from the server's filesystem and
// registers it under its base name.
func (g *Registry) RegisterPath(path string) (*Dataset, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("server: reading dataset: %w", err)
	}
	return g.RegisterCSV(filepath.Base(path), path, data)
}

// Get returns the dataset with the given short id or full content hash.
// It answers for the listing only (handlers, routing); whoever will read
// the rows takes Pin instead.
func (g *Registry) Get(id string) (*Dataset, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.getLocked(id)
}

func (g *Registry) getLocked(id string) (*Dataset, bool) {
	if hash, ok := g.alias[id]; ok {
		return g.byHash[hash], true
	}
	ds, ok := g.byHash[id]
	return ds, ok
}

// Pin resolves a dataset id or hash and returns the dataset together
// with the column value a job reads and the release the job calls when
// done. Lookup and reference are one step under the registry lock: an
// append swaps the entry under the write lock before it drops the old
// table's reference and unlinks the file, so a pin either lands first
// and keeps that table mapped, or resolves to the post-append dataset.
// This is the one place the tiers differ: a resident dataset reads its
// in-memory relation (a fresh adapter per job, so the per-value
// statistics it derives die with the job); a paged one reads its
// colstore table through the (hash, epoch)-keyed primitive cache shared
// across jobs.
func (g *Registry) Pin(id string) (*Dataset, relation.Columns, func(), error) {
	g.mu.RLock()
	d, ok := g.getLocked(id)
	var t *colstore.Table
	if ok && d.handle != nil {
		t = d.handle.pin() // open: the registry holds a reference
	}
	g.mu.RUnlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w %q", ErrUnknownDataset, id)
	}
	if t == nil {
		return d, relation.AsColumns(d.rel), func() {}, nil
	}
	return d, primcache.Wrap(t, d.Hash, d.Epoch, g.prim), d.handle.unpin, nil
}

// Page returns one cursor page of datasets in content-hash order: the
// first `limit` datasets whose hash sorts strictly after `cursor`
// (empty cursor = from the start), plus the cursor addressing the next
// page ("" on the last page) and the corpus total. Hash order makes the
// cursor stable under concurrent registration: a dataset registered
// mid-iteration is seen iff its hash sorts after the position already
// consumed, and nothing is ever repeated.
func (g *Registry) Page(cursor string, limit int) (items []*Dataset, next string, total int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hashes := make([]string, 0, len(g.byHash))
	for hash := range g.byHash {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	page, next := cursorPage(hashes, cursor, limit)
	items = make([]*Dataset, 0, len(page))
	for _, hash := range page {
		items = append(items, g.byHash[hash])
	}
	return items, next, len(hashes)
}

// cursorPage cuts one cursor page out of sorted keys: the first `limit`
// keys strictly after `cursor` (limit ≤ 0 = all of them), and the cursor
// addressing the next page — the last key returned, "" when the page
// reaches the end. The page aliases keys. Both list endpoints page
// through it.
func cursorPage(keys []string, cursor string, limit int) (page []string, next string) {
	start := sort.Search(len(keys), func(i int) bool { return keys[i] > cursor })
	end := len(keys)
	if limit > 0 && start+limit < end {
		end = start + limit
		next = keys[end-1]
	}
	return keys[start:end], next
}

// Len returns the number of registered datasets.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.byHash)
}

// ResidentBytes returns the total CSV source size of the datasets whose
// relations are resident in memory; paged datasets cost pages, not
// residency, and are excluded.
func (g *Registry) ResidentBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var total int64
	for _, ds := range g.byHash {
		if ds.rel != nil {
			total += ds.Bytes
		}
	}
	return total
}
