package mm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// readRef is the line-at-a-time reader Read replaced (bufio.Scanner,
// strings.Fields and strconv on every line), kept as the reference the
// differential tests hold Read to. It carries the two fixes Read made at
// the same time: its capacity hint comes from nothing the header claims,
// and indices are range-checked as int before narrowing to int32.
func readRef(r io.Reader) (*sparse.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)

	if !sc.Scan() {
		return nil, fmt.Errorf("mm: empty input: %w", firstErr(sc.Err(), io.ErrUnexpectedEOF))
	}
	h, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}

	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mm: missing size line: %w", firstErr(sc.Err(), io.ErrUnexpectedEOF))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("mm: bad size line %q: want exactly \"rows cols nnz\"", line)
		}
		for i, dst := range []*int{&rows, &cols, &nnz} {
			v, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, fmt.Errorf("mm: bad size line %q: %w", line, err)
			}
			*dst = v
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("mm: non-square matrix %dx%d not supported", rows, cols)
	}
	if rows <= 0 || nnz < 0 {
		return nil, fmt.Errorf("mm: invalid size line: rows=%d nnz=%d", rows, nnz)
	}
	maxIdx := min(rows, math.MaxInt32+1)

	m := sparse.NewCOO(rows, 0)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("mm: expected %d entries, got %d: %w",
				nnz, read, firstErr(sc.Err(), io.ErrUnexpectedEOF))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		wantFields := 3
		if h.field == "pattern" {
			wantFields = 2
		}
		if len(fields) < wantFields {
			return nil, fmt.Errorf("mm: entry %d malformed: %q", read, line)
		}
		ri, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mm: entry %d row: %w", read, err)
		}
		ci, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mm: entry %d col: %w", read, err)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mm: entry %d value: %w", read, err)
			}
		}
		if ri < 1 || ri > maxIdx || ci < 1 || ci > maxIdx {
			return nil, fmt.Errorf("mm: entry %d (%d,%d) out of range for N=%d", read, ri, ci, rows)
		}
		r0, c0 := int32(ri-1), int32(ci-1)
		m.Append(r0, c0, v)
		if h.symmetry != General && r0 != c0 {
			mv := v
			if h.symmetry == SkewSymmetric {
				mv = -v
			}
			m.Append(c0, r0, mv)
		}
		read++
	}
	m.SortRowMajor()
	m.DedupSum()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mm: parsed matrix invalid: %w", err)
	}
	return m, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
