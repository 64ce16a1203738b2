// Package mm reads and writes the MatrixMarket exchange format (Boisvert et
// al.), the on-disk format the HotTiles host software ingests (paper
// §VI-B). It supports the coordinate layout with real, integer, and pattern
// fields, and general/symmetric/skew-symmetric symmetry. Only square
// matrices are accepted, matching the paper's SpMM setting.
//
// Read takes the whole input into one buffer, parses the banner and size
// line as strings, then parses the entry lines straight from the bytes, in
// newline-aligned chunks on the par pool. Common lines (ASCII, unsigned
// indices) take a hand-written fast path; every other line goes through
// strings.Fields and strconv, so the inputs accepted and the matrices
// produced are those of a plain line-at-a-time reader. Every array is
// sized from the input's bytes, never from the header's nnz claim.
package mm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Symmetry describes the MatrixMarket symmetry qualifier.
type Symmetry int

const (
	General Symmetry = iota
	Symmetric
	SkewSymmetric
)

func (s Symmetry) String() string {
	switch s {
	case Symmetric:
		return "symmetric"
	case SkewSymmetric:
		return "skew-symmetric"
	default:
		return "general"
	}
}

// header is the parsed "%%MatrixMarket ..." banner.
type header struct {
	object, format, field string
	symmetry              Symmetry
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("mm: malformed banner %q", line)
	}
	h := header{object: fields[1], format: fields[2], field: fields[3]}
	if h.object != "matrix" {
		return header{}, fmt.Errorf("mm: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return header{}, fmt.Errorf("mm: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return header{}, fmt.Errorf("mm: unsupported field %q", h.field)
	}
	switch fields[4] {
	case "general":
		h.symmetry = General
	case "symmetric":
		h.symmetry = Symmetric
	case "skew-symmetric":
		h.symmetry = SkewSymmetric
	default:
		return header{}, fmt.Errorf("mm: unsupported symmetry %q", fields[4])
	}
	return h, nil
}

// maxLine bounds a line's length in bytes, '\n' excluded: a longer line
// that the reader reaches is rejected with bufio.ErrTooLong.
const maxLine = 1 << 22

// chunkBytes is the target size of one parallel parse chunk; a chunk runs
// on to the end of the line it stops in. Tests lower it to force many
// chunks on small inputs.
var chunkBytes = 1 << 18

// readLatency records the wall time of every Read call, failed ones
// included: the mm.read layer of the serving path.
var readLatency = obs.NewHistogram("mm.read.ns")

// Read parses a MatrixMarket coordinate stream into a row-major,
// deduplicated COO. Symmetric and skew-symmetric inputs are expanded to
// their full general form. Pattern matrices get value 1 for every entry.
// Entry lines after the header's nnz-th entry are ignored.
func Read(r io.Reader) (*sparse.COO, error) {
	defer readLatency.ObserveSince(obs.Now())
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("mm: reading input: %w", err)
	}
	return parse(buf.Bytes())
}

func parse(data []byte) (*sparse.COO, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mm: empty input: %w", io.ErrUnexpectedEOF)
	}
	line, body := cutLine(data)
	if len(line) >= maxLine {
		return nil, fmt.Errorf("mm: banner: %w", bufio.ErrTooLong)
	}
	h, err := parseHeader(string(line))
	if err != nil {
		return nil, err
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for {
		if len(body) == 0 {
			return nil, fmt.Errorf("mm: missing size line: %w", io.ErrUnexpectedEOF)
		}
		line, body = cutLine(body)
		if len(line) >= maxLine {
			return nil, fmt.Errorf("mm: size line: %w", bufio.ErrTooLong)
		}
		s := strings.TrimSpace(string(line))
		if s == "" || strings.HasPrefix(s, "%") {
			continue
		}
		// Parse strictly: exactly three integer fields. fmt.Sscan would
		// silently accept trailing garbage ("4 4 5 junk" parses as 4×4/5),
		// so a corrupt upload would be mis-read instead of rejected.
		fields := strings.Fields(s)
		if len(fields) != 3 {
			return nil, fmt.Errorf("mm: bad size line %q: want exactly \"rows cols nnz\"", s)
		}
		for i, dst := range []*int{&rows, &cols, &nnz} {
			if *dst, err = strconv.Atoi(fields[i]); err != nil {
				return nil, fmt.Errorf("mm: bad size line %q: %w", s, err)
			}
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("mm: non-square matrix %dx%d not supported", rows, cols)
	}
	if rows <= 0 || nnz < 0 {
		return nil, fmt.Errorf("mm: invalid size line: rows=%d nnz=%d", rows, nnz)
	}

	p := entryParser{
		n:       rows,
		maxIdx:  min(rows, math.MaxInt32+1), // 1-based indices that fit int32
		pattern: h.field == "pattern",
		sym:     h.symmetry,
	}
	m, err := p.parseBody(body, nnz)
	if err != nil {
		return nil, err
	}
	m.SortRowMajor()
	m.DedupSum()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mm: parsed matrix invalid: %w", err)
	}
	return m, nil
}

// cutLine splits data after its first '\n' into that line, without the
// '\n', and the rest. With no '\n' the whole of data is the line.
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:]
	}
	return data, nil
}

// entryParser turns entry lines into nonzeros for one matrix.
type entryParser struct {
	n       int  // matrix dimension, for error messages
	maxIdx  int  // largest accepted 1-based index
	pattern bool // entries carry no value field
	sym     Symmetry

	// The shared output arrays; each chunk owns a disjoint slot range.
	rows, cols []int32
	vals       []float64
}

// chunk is one newline-aligned piece of the entry body.
type chunk struct {
	data    []byte
	off     int   // first output slot
	slots   int   // output slots reserved: an upper bound on what data yields
	n       int   // output slots written
	entries int   // entry lines parsed
	err     error // the first bad line; entries counts the entries before it
}

// parseBody parses the entry lines in body into a COO in file order:
// nonzeros appear exactly as a serial reader appending line by line would
// leave them, mirrored entries right after their originals.
func (p *entryParser) parseBody(body []byte, nnz int) (*sparse.COO, error) {
	chunks := make([]chunk, 0, len(body)/chunkBytes+1)
	for len(body) > 0 {
		end := len(body)
		if chunkBytes < end {
			if i := bytes.IndexByte(body[chunkBytes:], '\n'); i >= 0 {
				end = chunkBytes + i + 1
			}
		}
		chunks = append(chunks, chunk{data: body[:end]})
		body = body[end:]
	}

	// An entry line holds at least 2 (pattern) or 3 fields of one byte,
	// each followed by one separator byte or the end of the input, so a
	// chunk yields at most min(lines, (bytes+1)/minEntry) entries, each of
	// which may be mirrored. Sizing from the bytes rather than the header
	// keeps a lying nnz from allocating what the input does not hold.
	minEntry, mult := 6, 1
	if p.pattern {
		minEntry = 4
	}
	if p.sym != General {
		mult = 2
	}
	par.ForEach(len(chunks), func(i int) {
		c := &chunks[i]
		lines := bytes.Count(c.data, []byte{'\n'})
		if c.data[len(c.data)-1] != '\n' {
			lines++
		}
		c.slots = mult * min(lines, (len(c.data)+1)/minEntry)
	})
	total := 0
	for i := range chunks {
		chunks[i].off = total
		total += chunks[i].slots
	}
	p.rows = make([]int32, total)
	p.cols = make([]int32, total)
	p.vals = make([]float64, total)
	par.ForEach(len(chunks), func(i int) { p.parseChunk(&chunks[i], 0, math.MaxInt) })

	// Walk the chunks in order to the one holding the nnz-th entry. A
	// chunk that failed, or that runs past nnz, is parsed again knowing its
	// first entry's index: that reports a failure with its global entry
	// number, and stops at the nnz-th entry, so a bad line after it (which
	// a serial reader never looks at) is not reported.
	read, used := 0, 0
	for i := 0; i < len(chunks) && read < nnz; i++ {
		c := &chunks[i]
		if c.err != nil || read+c.entries > nnz {
			p.parseChunk(c, read, nnz-read)
			if c.err != nil {
				return nil, c.err
			}
		}
		read += c.entries
		used = i + 1
	}
	if read < nnz {
		return nil, fmt.Errorf("mm: expected %d entries, got %d: %w", nnz, read, io.ErrUnexpectedEOF)
	}

	// Close the gaps between the chunks' slot ranges.
	n := 0
	for _, c := range chunks[:used] {
		copy(p.rows[n:], p.rows[c.off:c.off+c.n])
		copy(p.cols[n:], p.cols[c.off:c.off+c.n])
		copy(p.vals[n:], p.vals[c.off:c.off+c.n])
		n += c.n
	}
	return &sparse.COO{N: p.n, Rows: p.rows[:n], Cols: p.cols[:n], Vals: p.vals[:n]}, nil
}

// parseChunk parses c's lines into its slot range until it has parsed
// limit entries, runs out of lines, or meets a bad line. base is the
// global index of c's first entry, used only in error messages.
func (p *entryParser) parseChunk(c *chunk, base, limit int) {
	rows := p.rows[c.off : c.off+c.slots]
	cols := p.cols[c.off : c.off+c.slots]
	vals := p.vals[c.off : c.off+c.slots]
	data := c.data
	n, entries := 0, 0
	c.err = nil
	for len(data) > 0 && entries < limit {
		var line []byte
		line, data = cutLine(data)
		if len(line) >= maxLine {
			c.err = fmt.Errorf("mm: entry %d: %w", base+entries, bufio.ErrTooLong)
			break
		}
		r, col, v, kind := p.fastLine(line)
		if kind == lineOther {
			var err error
			if r, col, v, kind, err = p.slowLine(line, base+entries); err != nil {
				c.err = err
				break
			}
		}
		if kind == lineSkip {
			continue
		}
		rows[n], cols[n], vals[n] = r, col, v
		n++
		if p.sym != General && r != col {
			if p.sym == SkewSymmetric {
				v = -v
			}
			rows[n], cols[n], vals[n] = col, r, v
			n++
		}
		entries++
	}
	c.n, c.entries = n, entries
}

// lineKind classifies one body line.
type lineKind uint8

const (
	lineOther lineKind = iota // off the fast path: slowLine decides
	lineSkip                  // blank or comment
	lineEntry
)

// fastLine parses the common line shape by hand: pure ASCII up to the end
// of the last field read, indices unsigned with at most 18 digits and in
// range, the value a token strconv.ParseFloat accepts. Anything else —
// a sign, a non-ASCII byte, a Unicode space, a short or malformed line —
// returns lineOther. Fields after the ones read are ignored, as
// slowLine ignores them.
func (p *entryParser) fastLine(line []byte) (r, c int32, v float64, kind lineKind) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '%' {
		return 0, 0, 0, lineSkip
	}
	ri, i, ok := parseIndex(line, i)
	if !ok {
		return 0, 0, 0, lineOther
	}
	ci, i, ok := parseIndex(line, skipSpace(line, i))
	if !ok || ri < 1 || ri > p.maxIdx || ci < 1 || ci > p.maxIdx {
		return 0, 0, 0, lineOther
	}
	v = 1
	if !p.pattern {
		i = skipSpace(line, i)
		j := i
		for ; j < len(line) && !isSpace(line[j]); j++ {
			if line[j] >= utf8.RuneSelf {
				return 0, 0, 0, lineOther
			}
		}
		var err error
		if v, err = strconv.ParseFloat(string(line[i:j]), 64); err != nil {
			return 0, 0, 0, lineOther
		}
	}
	return int32(ri - 1), int32(ci - 1), v, lineEntry
}

// isSpace reports whether b is one of the ASCII bytes unicode.IsSpace
// accepts: '\t', '\n', '\v', '\f', '\r' and ' '.
func isSpace(b byte) bool { return b == ' ' || b-'\t' <= '\r'-'\t' }

func skipSpace(line []byte, i int) int {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	return i
}

// parseIndex reads the token of decimal digits at line[i:], ending at an
// ASCII space or the end of the line. ok is false for an empty token, a
// token of more than 18 digits (it might overflow) or any other byte.
func parseIndex(line []byte, i int) (v, next int, ok bool) {
	start := i
	for ; i < len(line) && !isSpace(line[i]); i++ {
		d := line[i] - '0'
		if d > 9 {
			return 0, i, false
		}
		v = v*10 + int(d)
	}
	return v, i, i > start && i-start <= 18
}

// slowLine parses any line with strings.Fields and strconv: the
// definition of the entry grammar, which fastLine only speeds up. entry is
// the line's global entry index, for error messages.
func (p *entryParser) slowLine(line []byte, entry int) (r, c int32, v float64, kind lineKind, err error) {
	s := strings.TrimSpace(string(line))
	if s == "" || strings.HasPrefix(s, "%") {
		return 0, 0, 0, lineSkip, nil
	}
	fields := strings.Fields(s)
	wantFields := 3
	if p.pattern {
		wantFields = 2
	}
	if len(fields) < wantFields {
		return 0, 0, 0, 0, fmt.Errorf("mm: entry %d malformed: %q", entry, s)
	}
	ri, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("mm: entry %d row: %w", entry, err)
	}
	ci, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("mm: entry %d col: %w", entry, err)
	}
	v = 1
	if !p.pattern {
		if v, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("mm: entry %d value: %w", entry, err)
		}
	}
	// MatrixMarket is 1-indexed. Check the range before narrowing to
	// int32, which would wrap 4294967297 to 1.
	if ri < 1 || ri > p.maxIdx || ci < 1 || ci > p.maxIdx {
		return 0, 0, 0, 0, fmt.Errorf("mm: entry %d (%d,%d) out of range for N=%d", entry, ri, ci, p.n)
	}
	return int32(ri - 1), int32(ci - 1), v, lineEntry, nil
}

// Write emits m as a general real coordinate MatrixMarket stream.
func Write(w io.Writer, m *sparse.COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.N, m.N, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.NNZ(); i++ {
		r, c, v := m.At(i)
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, c+1, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
