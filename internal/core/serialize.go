package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The OSSM is a compile-time structure meant to outlive the session that
// built it (Section 3: "computed once at compile-time … used regardless
// of how the support threshold is changed"). The binary format is
// little-endian: magic "OSSMMAP1", uint32 numItems, uint32 numSegments,
// then the segment rows as uint32 cells.

var mapMagic = [8]byte{'O', 'S', 'S', 'M', 'M', 'A', 'P', '1'}

// ErrBadMapFormat is returned when parsing a serialized Map fails.
var ErrBadMapFormat = errors.New("core: bad OSSM map format")

// ErrTruncated is returned when a serialized Map ends before its header
// promises — the stream is a valid prefix cut short (a torn write, a
// partial copy), not structural corruption. Recovery paths use the
// distinction: a truncated snapshot means "fall back to an earlier one",
// a corrupt header means "the file was never a map". Truncation is
// still a failed parse, so these errors match ErrBadMapFormat too.
var ErrTruncated = fmt.Errorf("%w: truncated", ErrBadMapFormat)

// shortRead classifies a ReadFull failure: end-of-stream errors mean the
// input was cut off, anything else is an I/O failure to pass through.
func shortRead(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// WriteMap serializes m.
func WriteMap(w io.Writer, m *Map) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(mapMagic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(m.numItems))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(m.NumSegments()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// The file is segment-major; transpose the columns one row at a time.
	buf := make([]byte, 4*m.numItems)
	for s := 0; s < m.numSegs; s++ {
		for it := 0; it < m.numItems; it++ {
			binary.LittleEndian.PutUint32(buf[4*it:], m.itemMajor[it*m.numSegs+s])
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMap parses a serialized Map.
func ReadMap(r io.Reader) (*Map, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if shortRead(err) {
			return nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadMapFormat, err)
	}
	if magic != mapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMapFormat, magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if shortRead(err) {
			return nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadMapFormat, err)
	}
	numItems := int(binary.LittleEndian.Uint32(hdr[0:4]))
	numSegs := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if numSegs < 1 {
		return nil, fmt.Errorf("%w: %d segments", ErrBadMapFormat, numSegs)
	}
	// Guard against hostile headers demanding absurd allocations (a 2³²
	// cell matrix) before any payload byte has been validated.
	const maxCells = 1 << 28 // 1 GiB of uint32 cells
	if numItems > maxCells || numSegs > maxCells || int64(numItems)*int64(numSegs) > maxCells {
		return nil, fmt.Errorf("%w: header claims %d×%d cells", ErrBadMapFormat, numSegs, numItems)
	}
	m := newMap(numSegs, numItems)
	buf := make([]byte, 4*numItems)
	for s := 0; s < numSegs; s++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			if shortRead(err) {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrTruncated, s, err)
			}
			return nil, fmt.Errorf("%w: segment %d: %v", ErrBadMapFormat, s, err)
		}
		for it := 0; it < numItems; it++ {
			m.itemMajor[it*numSegs+s] = binary.LittleEndian.Uint32(buf[4*it:])
		}
	}
	return m.withTotals(), nil
}
