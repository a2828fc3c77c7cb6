package colstore

import (
	"io"

	"structmine/internal/relation"
	"structmine/internal/store"
)

// Ingest parses a CSV source into a .col file named meta.Hash+Ext under
// dir, returning the final path. It is relation.ReadCSVLimited followed
// by WriteFromRelation — the stream form of the parse a registration
// runs, so limits, error texts and value ids are the resident parser's.
// open is called once; the parsed relation (named meta.Name) is
// resident until the file is published.
func Ingest(dir string, meta store.DatasetMeta, open func() (io.ReadCloser, error), lim relation.Limits, opt WriteOptions) (string, error) {
	src, err := open()
	if err != nil {
		return "", err
	}
	rel, err := relation.ReadCSVLimited(meta.Name, src, lim)
	src.Close()
	if err != nil {
		return "", err
	}
	return WriteFromRelation(dir, meta, rel, opt)
}
