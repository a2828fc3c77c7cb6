package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"structmine/internal/colstore"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// ErrDatasetLimit reports that the registry is at its configured
// capacity and refuses to make another relation resident.
var ErrDatasetLimit = errors.New("server: dataset limit reached")

// ErrPagedNeedsStore reports that a dataset exceeded the resident-bytes
// budget on a server without a durable store to page it to.
var ErrPagedNeedsStore = errors.New(
	"server: dataset exceeds the resident budget and the paged tier needs -persist")

// ErrAppendOverBudget reports an append that would grow a resident
// dataset past the resident-bytes budget on a server without a paged
// tier to spill it to.
var ErrAppendOverBudget = errors.New(
	"server: append exceeds the resident budget and the paged tier needs -persist")

// Storage classes of a registered dataset.
const (
	// StorageResident marks a dataset whose parsed relation is held in
	// memory — the classic tier, and the only one without a store.
	StorageResident = "resident"
	// StoragePaged marks a dataset backed by an on-disk colstore file,
	// read page-at-a-time through the relation.Columns interface. Every
	// single-dataset task runs over it.
	StoragePaged = "paged"
)

// Dataset is one registered relation instance. With a durable store
// every dataset is backed by one colstore file; a resident dataset
// additionally keeps the parsed relation in memory, a paged one reads
// the file page-at-a-time. The exported (JSON) fields are immutable for
// the lifetime of a *Dataset value: tier changes (eviction) replace the
// registry entry with a new value rather than mutating the old one, so
// handlers may marshal the pointers they hold without locking.
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
	// For paged datasets it comes from the colstore tail, never from a
	// relation that is no longer resident.
	Bytes int64 `json:"bytes"`
	// Storage is the dataset's tier: StorageResident or StoragePaged.
	Storage string               `json:"storage"`
	Summary *task.DescribeResult `json:"summary"`

	rel     *relation.Relation // resident tier (nil when paged)
	colPath string             // the dataset's colstore file ("" without a store)

	// use is the LRU clock cell, shared across tier-change copies of the
	// same dataset so eviction ordering survives the copy.
	use *atomic.Int64

	// handle is the lazily opened colstore table, behind a pointer so the
	// struct stays copyable (tests unmarshal Dataset values) and tier
	// changes share one open file.
	handle *pagedHandle
}

// pagedHandle owns a dataset's colstore table: opened on first use,
// shared by the tier-change copies of the dataset, read through the
// server's primitive cache, and kept mapped while anyone holds a
// reference. The registered dataset holds one from the start and every
// job that reads the table pins another; an append drops the dataset's
// (the file is replaced and unlinked), so the table is unmapped when the
// last job admitted before the append has finished with it.
type pagedHandle struct {
	prim *primcache.Cache

	mu    sync.Mutex
	table *colstore.Table
	refs  int
}

// pin returns the open table, holding it mapped until unpin.
func (h *pagedHandle) pin(path string) (*colstore.Table, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.table == nil {
		t, err := colstore.Open(path)
		if err != nil {
			return nil, err
		}
		h.table = t
	}
	h.refs++
	return h.table, nil
}

func (h *pagedHandle) unpin() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refs--; h.refs == 0 && h.table != nil {
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
	max    int // dataset-count cap (0 = unlimited)

	// budget caps the total CSV bytes of resident relations (0 =
	// unlimited). With a store attached, registrations above the budget
	// are admitted straight to the paged tier, and resident datasets drop
	// their in-memory relation (least recently used first) when the
	// total exceeds it.
	budget int64
	useSeq atomic.Int64

	// prim serves single-attribute primitives of paged datasets across
	// jobs, keyed (hash, epoch, attr); nil disables it.
	prim *primcache.Cache

	// st, when non-nil, makes registration durable: the dataset's
	// colstore file is written before the relation becomes resident, so
	// a restarted server re-adopts it without re-parsing the CSV.
	st *store.Store

	// Boot recovery counters (RecoverAppends, RecoverColstore), guarded
	// by mu.
	recovered     int
	appendReplays int

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

// pagedTier reports whether the colstore tier is available: it needs
// both a budget and a durable store to host the files.
func (g *Registry) pagedTier() bool { return g.st != nil && g.budget > 0 }

func (g *Registry) writeOpts() colstore.WriteOptions {
	return colstore.WriteOptions{FS: g.st.FS(), Fsync: g.st.FsyncEnabled()}
}

// addLocked enters a dataset under its hash and id. The caller holds
// g.mu.
func (g *Registry) addLocked(ds *Dataset) {
	g.byHash[ds.Hash] = ds
	g.alias[ds.ID] = ds.Hash
	g.touch(ds)
}

// touch advances the dataset's LRU clock.
func (g *Registry) touch(ds *Dataset) {
	if ds != nil && ds.use != nil {
		ds.use.Store(g.useSeq.Add(1))
	}
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
		return nil, fmt.Errorf("%w (%d resident)", ErrDatasetLimit, len(g.byHash))
	}
	return nil, nil
}

// RegisterCSV parses CSV bytes and registers the resulting relation. It
// is idempotent on content: re-registering the same bytes returns the
// existing dataset (and reports created=false). Both tiers take one
// path — parse, then with a store attached write the dataset's file —
// and differ in what stays in memory: the parsed relation while the
// content fits the resident budget, only the open file when it does not.
func (g *Registry) RegisterCSV(name, source string, data []byte) (ds *Dataset, created bool, err error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	size := int64(len(data))

	// Answer a re-registration, and refuse at the cap, before paying for
	// the parse; writeMu below makes the same check final.
	if prior, err := g.admit(hash); prior != nil || err != nil {
		g.touch(prior)
		return prior, false, err
	}
	if name == "" {
		name = "dataset-" + hash[:shortIDLen]
	}
	resident := g.budget == 0 || size <= g.budget
	if !resident && g.st == nil {
		return nil, false, fmt.Errorf("%w (%d > %d bytes)", ErrPagedNeedsStore, size, g.budget)
	}
	rel, err := relation.ReadCSVLimited(name, bytes.NewReader(data), g.lim)
	if err != nil {
		return nil, false, err
	}
	var summary *task.DescribeResult
	if resident {
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
	// Durability before residency: if the dataset file cannot be written
	// the registration fails outright, so the server never carries
	// datasets a restart would silently forget. g.mu is not held across
	// the write — lookups go on — and nothing can enter this hash or fill
	// the registry meanwhile: every insert takes writeMu.
	var path string
	if g.st != nil {
		meta := store.DatasetMeta{Hash: hash, Name: name, Source: source, Bytes: size, ID: id}
		dir, err := g.st.ColstoreDir()
		if err == nil {
			path, err = colstore.WriteFromRelation(dir, meta, rel, g.writeOpts())
		}
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrStoreWrite, err)
		}
	}
	// Within the budget the parse stays; over it the file is the dataset,
	// described from its value index, and the parse is garbage from here.
	if resident {
		ds = &Dataset{
			ID: id, Name: name, Hash: hash, Source: source, Bytes: size,
			Storage: StorageResident, Summary: summary,
			rel: rel, colPath: path, use: &atomic.Int64{},
		}
		if g.st != nil {
			ds.handle = &pagedHandle{prim: g.prim, refs: 1}
		}
	} else if ds, err = g.openCol(path, hash); err != nil {
		return nil, false, err
	}
	g.mu.Lock()
	g.addLocked(ds)
	g.evictLocked()
	g.mu.Unlock()
	return ds, true, nil
}

// evictLocked drops the in-memory relation of resident datasets, least
// recently used first, until the resident total fits the budget. The
// dataset's colstore file already exists (durability before
// residency), so eviction writes nothing: the registry entry is
// replaced by a paged copy that keeps the id, summary, cache keys and
// file handle. Requires the paged tier. The caller holds g.mu.
func (g *Registry) evictLocked() {
	if !g.pagedTier() {
		return
	}
	for g.residentBytesLocked() > g.budget {
		var victim *Dataset
		for _, ds := range g.byHash {
			if ds.rel != nil && (victim == nil || ds.use.Load() < victim.use.Load()) {
				victim = ds
			}
		}
		if victim == nil {
			return
		}
		paged := *victim
		paged.rel, paged.Storage = nil, StoragePaged
		g.byHash[victim.Hash] = &paged
	}
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
		Summary: summary, colPath: path, use: &atomic.Int64{},
		handle: &pagedHandle{prim: g.prim, table: tbl, refs: 1},
	}, nil
}

// RecoverColstore sweeps the colstore directory at boot: leftover temp
// files are removed, foreign or corrupt files are quarantined, and
// every valid file whose content is not already registered is adopted
// — re-materialised as a resident relation (value ids preserved) while
// it fits the resident budget, left paged otherwise. Call after
// RecoverAppends so the sweep only sees the settled side of each
// lineage.
func (g *Registry) RecoverColstore() {
	if g.st == nil {
		return
	}
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	dir, err := g.st.ColstoreDir()
	if err != nil {
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if strings.HasPrefix(e.Name(), store.TempPrefix) {
			os.Remove(path) // torn write from a previous life
			continue
		}
		if !strings.HasSuffix(e.Name(), colstore.Ext) {
			g.st.Quarantine(path)
			continue
		}
		hash := strings.TrimSuffix(e.Name(), colstore.Ext)
		if prior, err := g.admit(hash); prior != nil || err != nil {
			continue // already registered, or the registry is full
		}
		ds, err := g.openCol(path, hash)
		if err != nil {
			continue
		}
		if g.budget == 0 || g.ResidentBytes()+ds.Bytes <= g.budget {
			if ds.rel, err = ds.handle.table.Relation(); err != nil {
				ds.handle.table.Close()
				g.st.Quarantine(path)
				continue
			}
			ds.Storage = StorageResident
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

// RegisterPath reads a CSV file from the server's filesystem and
// registers it under its base name.
func (g *Registry) RegisterPath(path string) (*Dataset, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("server: reading dataset: %w", err)
	}
	return g.RegisterCSV(filepath.Base(path), path, data)
}

// Get returns the dataset with the given short id or full content hash,
// advancing its LRU clock. It answers for the listing only (handlers,
// routing); whoever will read the rows takes Pin instead.
func (g *Registry) Get(id string) (*Dataset, bool) {
	g.mu.RLock()
	ds, ok := g.getLocked(id)
	g.mu.RUnlock()
	if ok {
		g.touch(ds)
	}
	return ds, ok
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
// Only the reference is taken under the lock; the file opens after it
// (an append opens the table it replaces before unlinking it, so a held
// reference never finds the file gone), and listings and probes never
// queue behind an open. This is the one place the tiers differ: a
// resident dataset reads its in-memory relation (a fresh adapter per
// job, so the per-value statistics it derives die with the job); a paged
// one reads its colstore table — opened by the first pin when the
// dataset was registered resident and evicted since — through the
// (hash, epoch)-keyed primitive cache shared across jobs.
func (g *Registry) Pin(id string) (*Dataset, relation.Columns, func(), error) {
	g.mu.RLock()
	d, ok := g.getLocked(id)
	if ok && d.rel == nil { // the reference only: the file opens below, unlocked
		d.handle.mu.Lock()
		d.handle.refs++
		d.handle.mu.Unlock()
	}
	g.mu.RUnlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w %q", ErrUnknownDataset, id)
	}
	g.touch(d)
	if d.rel != nil {
		return d, relation.AsColumns(d.rel), func() {}, nil
	}
	t, err := d.handle.pin(d.colPath)
	d.handle.unpin() // the reference taken above: pin holds its own, or failed
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: opening dataset file of %s: %w", d.ID, err)
	}
	return d, primcache.Wrap(t, d.Hash, d.Epoch, d.handle.prim), d.handle.unpin, nil
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
	page, next := cursorPage(hashes, cursor, limit)
	items = make([]*Dataset, 0, len(page))
	for _, hash := range page {
		items = append(items, g.byHash[hash])
	}
	return items, next, len(hashes)
}

// cursorPage sorts keys and cuts one cursor page out of them: the first
// `limit` keys strictly after `cursor` (limit ≤ 0 = all of them), and the
// cursor addressing the next page — the last key returned, "" when the
// page reaches the end. Both list endpoints page through it.
func cursorPage(keys []string, cursor string, limit int) (page []string, next string) {
	sort.Strings(keys)
	start := sort.Search(len(keys), func(i int) bool { return keys[i] > cursor })
	end := len(keys)
	if limit > 0 && start+limit < end {
		end = start + limit
		next = keys[end-1]
	}
	return keys[start:end], next
}

// Len returns the number of registered datasets (both tiers).
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
	return g.residentBytesLocked()
}

func (g *Registry) residentBytesLocked() int64 {
	var total int64
	for _, ds := range g.byHash {
		if ds.rel != nil {
			total += ds.Bytes
		}
	}
	return total
}
