// Package colstore is the out-of-core columnar dataset store: a
// versioned on-disk relation format in which a durable daemon keeps and
// mines every dataset, whether or not its parsed form would fit in
// memory (the parse itself is transient: it lasts until the file is
// written).
//
// A .col file holds one dictionary-encoded relation:
//
//	header (32 B)  magic "SMCL" | u32 version | u32 pageRows | u32 m |
//	               u64 n | u32 d | u32 CRC32-IEEE(header)
//	pages          stripe-major: for each stripe s (pageRows tuples),
//	               for each attribute a: rows(s)×4 B little-endian
//	               int32 value ids, then u32 CRC32-IEEE(page)
//	tail           registration metadata (including the stable dataset
//	               id and append epoch), attribute names, per-attribute
//	               NULL counts, the d dictionary strings in id order,
//	               and the per-attribute value index (value →
//	               run-length-compressed tuple postings), all
//	               uvarint-encoded
//	footer (24 B)  u64 tailOff | u64 tailLen | u32 CRC32-IEEE(tail) |
//	               magic "SMCL"
//
// This package parses no CSV and assigns no value ids: every write
// (WriteFromRelation, Ingest, Append) encodes a relation.Relation that
// package relation interned, so the ids on disk are the dense
// attribute-qualified ids of the resident relation, in its
// first-appearance order, and a kernel consuming the paged interface
// produces bit-identical results to the resident path. Page offsets
// are arithmetically computable from the header alone (no page
// directory), and every region — header, each page, tail — carries its
// own CRC so torn or bit-flipped files are rejected, never trusted.
//
// Files are written through the store.FS temp→fsync→rename discipline,
// so a crash mid-write leaves no partial .col file. Reads go through
// mmap on linux/darwin; the colstore_readat build tag (or any other
// GOOS) selects a plain pread-based fallback.
package colstore

import (
	"errors"

	"structmine/internal/obs"
)

// Ext is the file extension of a columnar dataset file; the base name
// is the dataset's content hash.
const Ext = ".col"

// ErrCorrupt reports a file that failed checksum or structural
// validation; callers quarantine such files rather than trust them.
var ErrCorrupt = errors.New("colstore: corrupt file")

// Package metrics, exported through the default obs registry the
// daemon's /v1/metrics endpoint already serves.
var (
	pagesRead = obs.Default.Counter("structmine_colstore_pages_read_total",
		"Column pages served by paged relations.")
	pageFaults = obs.Default.Counter("structmine_colstore_page_faults_total",
		"Column pages materialized and validated for the first time.")
	openRelations = obs.Default.Gauge("structmine_colstore_open_relations",
		"Columnar relation files currently open.")
	bytesMapped = obs.Default.Gauge("structmine_colstore_bytes_mapped",
		"Bytes of columnar files currently memory-mapped.")
	pageReadSeconds = obs.Default.Histogram("structmine_colstore_page_read_seconds",
		"Latency of page read operations, fetch + CRC + decode; a batched ReadStripe counts as one operation.",
		obs.TimeBuckets)
)
