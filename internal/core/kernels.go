package core

import (
	"math"

	"repro/internal/binrep"
	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// This file holds the fused fast-path kernels for the dominant geometries:
// 1D/2D/3D arrays with Layers=1 (the Lorenzo predictor) and 2D/3D arrays
// with Layers=2. Each kernel inlines predict + quantize + reconstruct +
// histogram into a single scan with hoisted strides and explicit border
// rows, instead of paying the generic per-point cost (coordinate odometer,
// interior test, []Term stencil walk, quantizer method call).
//
// The kernels are pure hot-path specializations: they MUST produce the
// exact stream bytes and Stats the generic path produces. Two properties
// make that hold:
//
//   - every hand-written prediction expression accumulates its terms in
//     the same order predictor.Predict enumerates them (the buildStencil
//     odometer order, last dimension fastest), so float additions round
//     identically; the 3D Layers=2 kernel walks the FlatStencil, which
//     preserves that order by construction;
//   - the fused quantize in (*compressState).point mirrors quant.Quantize
//     operation for operation (see the comment there).
//
// kernels_test.go asserts byte-for-byte equivalence on randomized
// geometries; the golden-stream tests pin the bytes themselves.

// qparams holds the hoisted quantizer and output-precision parameters
// shared by the compress and decompress kernels.
type qparams struct {
	eb      float64 // absolute error bound
	twoEB   float64 // interval width 2·eb
	lim     float64 // radius + 0.5: interval-index cutoff
	fradius float64 // radius as a float, for the post-round check
	radius  int     // max |interval offset|, 2^(m-1) − 1
	center  int     // code of offset 0, 2^(m-1)
	f32     bool    // snap reconstructions to float32
	dtype   grid.DType
}

func newQParams(q *quant.Quantizer, t grid.DType) qparams {
	c := q.CenterCode()
	return qparams{
		eb:      q.ErrorBound(),
		twoEB:   2 * q.ErrorBound(),
		lim:     float64(c-1) + 0.5,
		fradius: float64(c - 1),
		radius:  c - 1,
		center:  c,
		f32:     t == grid.Float32,
		dtype:   t,
	}
}

// --- compression ------------------------------------------------------------

// compressState is the per-run scan state shared by the generic path and
// the fused kernels.
type compressState struct {
	qparams
	data  []float64
	recon []float64
	codes []int
	hist  []uint64

	outW        *bitstream.Writer
	outEnc      *binrep.Encoder
	numOutliers int
}

// point quantizes the value at idx against prediction pv, mirroring the
// generic quant.Quantize + snap + bound-recheck sequence decision for
// decision: escape on non-finite residual (a NaN/Inf residual yields a
// NaN/Inf interval index, which the range compares reject — no separate
// IsNaN/IsInf tests needed), round to the nearest interval, reject rounding
// that lands outside the radius or the bound, snap to the output precision,
// and re-reject if the snap pushed the reconstruction across the bound.
// The f64 path skips the post-snap recheck: the snap is the identity there,
// so the check can never fire.
func (s *compressState) point(idx int, pv float64) {
	x := s.data[idx]
	fi := (x - pv) / s.twoEB
	if fi <= s.lim && fi >= -s.lim {
		ri := math.Round(fi)
		if ri <= s.fradius && ri >= -s.fradius {
			rv := pv + s.twoEB*ri
			if d := x - rv; d <= s.eb && d >= -s.eb {
				if s.f32 {
					rv = float64(float32(rv))
					if d := x - rv; !(d <= s.eb && d >= -s.eb) {
						s.escape(idx, x)
						return
					}
				}
				code := s.center + int(ri)
				s.codes[idx] = code
				s.recon[idx] = rv
				s.hist[code]++
				return
			}
		}
	}
	s.escape(idx, x)
}

// escape routes the value at idx through the unpredictable-point path.
func (s *compressState) escape(idx int, x float64) {
	s.codes[idx] = quant.UnpredictableCode
	s.recon[idx] = encodeOutlier(s.outEnc, s.outW, x, s.eb, s.dtype)
	s.numOutliers++
	s.hist[quant.UnpredictableCode]++
}

// scanGeneric is the reference path: per-point coordinate odometer and
// generic predictor, for geometries without a specialized kernel.
func (s *compressState) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.data {
		s.point(idx, pred.Predict(s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan runs the fused kernel for the geometry if one exists (and kernels
// are enabled), else the generic path. It reports which path ran.
func (s *compressState) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
	if kernels {
		switch {
		case layers == 1 && len(dims) == 1:
			s.compress1DL1(dims[0])
			return true
		case layers == 1 && len(dims) == 2:
			s.compress2DL1(dims[0], dims[1])
			return true
		case layers == 1 && len(dims) == 3:
			s.compress3DL1(dims[0], dims[1], dims[2])
			return true
		case layers == 2 && len(dims) == 2:
			s.compress2DL2(dims[0], dims[1])
			return true
		case layers == 2 && len(dims) == 3:
			s.compress3DL2(dims[0], dims[1], dims[2], pred)
			return true
		}
	}
	s.scanGeneric(dims, pred)
	return false
}

// compress1DL1: pv = previous reconstruction (1D Lorenzo).
func (s *compressState) compress1DL1(n int) {
	recon := s.recon
	s.point(0, 0)
	for i := 1; i < n; i++ {
		s.point(i, recon[i-1])
	}
}

// compress2DL1: 2D Lorenzo with explicit first row and first column. The
// interior quantize is spelled out in the loop (same operations as point,
// see the comment there) so the whole hit path runs without a call and the
// hoisted parameters stay in registers.
func (s *compressState) compress2DL1(h, w int) {
	data, recon, codes, hist := s.data, s.recon, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	s.point(0, 0)
	for j := 1; j < w; j++ {
		s.point(j, recon[j-1])
	}
	for i := 1; i < h; i++ {
		row := i * w
		s.point(row, recon[row-w])
		for idx := row + 1; idx < row+w; idx++ {
			pv := recon[idx-1] + recon[idx-w] - recon[idx-w-1]
			x := data[idx]
			fi := (x - pv) / twoEB
			if fi <= lim && fi >= -lim {
				ri := math.Round(fi)
				if ri <= fradius && ri >= -fradius {
					rv := pv + twoEB*ri
					if d := x - rv; d <= eb && d >= -eb {
						if f32 {
							rv = float64(float32(rv))
							if d := x - rv; !(d <= eb && d >= -eb) {
								s.escape(idx, x)
								continue
							}
						}
						code := center + int(ri)
						codes[idx] = code
						recon[idx] = rv
						hist[code]++
						continue
					}
				}
			}
			s.escape(idx, x)
		}
	}
}

// compress3DL1: 3D Lorenzo with explicit first plane, first rows and first
// columns. sp is the plane stride, w the row stride.
func (s *compressState) compress3DL1(d, h, w int) {
	recon := s.recon
	sp := h * w
	// Plane 0 degenerates to the 2D Lorenzo kernel.
	s.point(0, 0)
	for k := 1; k < w; k++ {
		s.point(k, recon[k-1])
	}
	for j := 1; j < h; j++ {
		row := j * w
		s.point(row, recon[row-w])
		for idx := row + 1; idx < row+w; idx++ {
			s.point(idx, recon[idx-1]+recon[idx-w]-recon[idx-w-1])
		}
	}
	// Interior planes: the inner-row quantize is spelled out as in
	// compress2DL1 so consecutive hits run call-free.
	data, codes, hist := s.data, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	for i := 1; i < d; i++ {
		base := i * sp
		// Row (i,0,·): Lorenzo in the (i,k) plane.
		s.point(base, recon[base-sp])
		for idx := base + 1; idx < base+w; idx++ {
			s.point(idx, recon[idx-1]+recon[idx-sp]-recon[idx-sp-1])
		}
		for j := 1; j < h; j++ {
			row := base + j*w
			// Column (i,j,0): Lorenzo in the (i,j) plane.
			s.point(row, recon[row-w]+recon[row-sp]-recon[row-sp-w])
			for idx := row + 1; idx < row+w; idx++ {
				pv := recon[idx-1] + recon[idx-w] - recon[idx-w-1] +
					recon[idx-sp] - recon[idx-sp-1] - recon[idx-sp-w] + recon[idx-sp-w-1]
				x := data[idx]
				fi := (x - pv) / twoEB
				if fi <= lim && fi >= -lim {
					ri := math.Round(fi)
					if ri <= fradius && ri >= -fradius {
						rv := pv + twoEB*ri
						if d := x - rv; d <= eb && d >= -eb {
							if f32 {
								rv = float64(float32(rv))
								if d := x - rv; !(d <= eb && d >= -eb) {
									s.escape(idx, x)
									continue
								}
							}
							code := center + int(ri)
							codes[idx] = code
							recon[idx] = rv
							hist[code]++
							continue
						}
					}
				}
				s.escape(idx, x)
			}
		}
	}
}

// compress2DL2: two-layer 2D stencil (8 interior terms) with explicit
// reduced stencils for the first two rows and columns.
func (s *compressState) compress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	// Row 0: pure 1D two-layer prediction along the row.
	s.point(0, 0)
	if w > 1 {
		s.point(1, recon[0])
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*recon[j-1]-recon[j-2])
	}
	// Row 1: one layer available vertically.
	if h > 1 {
		s.point(w, recon[0])
		if w > 1 {
			s.point(w+1, recon[w]+recon[1]-recon[0])
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				recon[idx-w]-2*recon[idx-w-1]+recon[idx-w-2])
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*recon[row-w]-recon[row-w2])
		if w > 1 {
			idx := row + 1
			s.point(idx, recon[idx-1]+2*recon[idx-w]-2*recon[idx-w-1]-
				recon[idx-w2]+recon[idx-w2-1])
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				2*recon[idx-w]-4*recon[idx-w-1]+2*recon[idx-w-2]-
				recon[idx-w2]+2*recon[idx-w2-1]-recon[idx-w2-2])
		}
	}
}

// compress3DL2: the 26-term interior stencil is walked in flat form
// (hoisted deltas and coefficients, no Term structs); points within two
// layers of a low border take the generic reduced-stencil path.
func (s *compressState) compress3DL2(d, h, w int, pred *predictor.Predictor) {
	recon := s.recon
	fs := pred.Flat()
	deltas, coefs := fs.Deltas, fs.Coefs
	sp := h * w
	coord := make([]int, 3)
	for i := 0; i < d; i++ {
		coord[0] = i
		for j := 0; j < h; j++ {
			coord[1] = j
			row := i*sp + j*w
			lead := w
			if i >= 2 && j >= 2 {
				lead = 2
				if lead > w {
					lead = w
				}
			}
			for k := 0; k < lead; k++ {
				coord[2] = k
				s.point(row+k, pred.Predict(recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * recon[idx+dt]
				}
				s.point(idx, f)
			}
		}
	}
}

// --- decompression ----------------------------------------------------------

// decompressState mirrors compressState for the reconstruction scan.
// The stream's outliers are decoded up front (they follow the codes in
// the bitstream, in scan order), so the scan only indexes outl: no
// bitstream read or error path sits inside the reconstruct loops.
type decompressState struct {
	qparams
	recon []float64
	codes []int

	outl     []float64 // decoded outlier values, scan order
	outliers int       // outliers consumed so far (cursor into outl)

	// Interleaved-row bookkeeping (see decompressRows): the first row of
	// the current group, the row stride, and each row's outlier cursor
	// (-1 until the row meets its first outlier).
	grpRow, grpW int
	grpCur       [rowGroup]int
}

// rowGroup is how many rows the interleaved Lorenzo reconstruct
// advances together. Each sample's prediction waits on its left
// neighbour through a serial add chain; rows are independent of each
// other except through the row above at the same column, so a group of
// rows keeps that many chains in flight. group2DL1 and group3DL1 are
// unrolled for exactly this many rows.
const rowGroup = 4

// dequant reconstructs a coded (non-outlier) sample from its prediction:
// the same operations as quant.Reconstruct plus the output snap.
func dequant(pv, twoEB float64, code, center int, f32 bool) float64 {
	rv := pv + twoEB*float64(code-center)
	if f32 {
		rv = float64(float32(rv))
	}
	return rv
}

// outlier returns the next outlier in scan order.
func (s *decompressState) outlier() float64 {
	s.outliers++
	return s.outlierAt(s.outliers - 1)
}

// outlierAt returns outlier i. A corrupt stream can code more outliers
// than its header declares; the overrun yields 0, and the caller's
// final count check rejects the stream.
func (s *decompressState) outlierAt(i int) float64 {
	if i < len(s.outl) {
		return s.outl[i]
	}
	return 0
}

// point reconstructs the value at idx from its quantization code and the
// prediction pv.
func (s *decompressState) point(idx int, pv float64) {
	if code := s.codes[idx]; code != quant.UnpredictableCode {
		s.recon[idx] = dequant(pv, s.twoEB, code, s.center, s.f32)
		return
	}
	s.recon[idx] = s.outlier()
}

// scanGeneric is the reference reconstruction path.
func (s *decompressState) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.recon {
		// The prediction is only needed for coded points, but computing it
		// unconditionally costs nothing extra on this path.
		s.point(idx, pred.Predict(s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan mirrors (*compressState).scan for decompression.
func (s *decompressState) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
	if kernels {
		switch {
		case layers == 1 && len(dims) == 1:
			s.decompress1DL1(dims[0])
			return true
		case layers == 1 && len(dims) == 2:
			s.decompress2DL1(dims[0], dims[1])
			return true
		case layers == 1 && len(dims) == 3:
			s.decompress3DL1(dims[0], dims[1], dims[2])
			return true
		case layers == 2 && len(dims) == 2:
			s.decompress2DL2(dims[0], dims[1])
			return true
		case layers == 2 && len(dims) == 3:
			s.decompress3DL2(dims[0], dims[1], dims[2], pred)
			return true
		}
	}
	s.scanGeneric(dims, pred)
	return false
}

func (s *decompressState) decompress1DL1(n int) {
	recon := s.recon
	s.point(0, 0)
	for i := 1; i < n; i++ {
		s.point(i, recon[i-1])
	}
}

// decompress2DL1 reconstructs the first row serially, then the rest in
// interleaved groups of rowGroup rows.
func (s *decompressState) decompress2DL1(h, w int) {
	recon := s.recon
	s.point(0, 0)
	for j := 1; j < w; j++ {
		s.point(j, recon[j-1])
	}
	s.decompressRows(w, h-1, w, 0)
}

// decompress3DL1: plane 0 is the 2D kernel; in every later plane the
// first row is Lorenzo in the (i,k) plane and the rest go through the
// interleaved row groups.
func (s *decompressState) decompress3DL1(d, h, w int) {
	recon := s.recon
	sp := h * w
	s.decompress2DL1(h, w)
	for i := 1; i < d; i++ {
		base := i * sp
		s.point(base, recon[base-sp])
		for idx := base + 1; idx < base+w; idx++ {
			s.point(idx, recon[idx-1]+recon[idx-sp]-recon[idx-sp-1])
		}
		s.decompressRows(base+w, h-1, w, sp)
	}
}

// decompressRows reconstructs n consecutive rows of width w starting at
// flat index row, each of which has a row above it. sp is the plane
// stride for the 3D Lorenzo predictor, or 0 for 2D (no plane behind).
// Rows go in groups of rowGroup, the remainder one at a time.
func (s *decompressState) decompressRows(row, n, w, sp int) {
	for ; n >= rowGroup; n -= rowGroup {
		if sp == 0 {
			s.group2DL1(row, w)
		} else {
			s.group3DL1(row, w, sp)
		}
		row += rowGroup * w
	}
	recon := s.recon
	for ; n > 0; n-- {
		if sp == 0 {
			s.point(row, recon[row-w])
			for idx := row + 1; idx < row+w; idx++ {
				s.point(idx, recon[idx-1]+recon[idx-w]-recon[idx-w-1])
			}
		} else {
			s.point(row, recon[row-w]+recon[row-sp]-recon[row-sp-w])
			for idx := row + 1; idx < row+w; idx++ {
				s.point(idx,
					recon[idx-1]+recon[idx-w]-recon[idx-w-1]+
						recon[idx-sp]-recon[idx-sp-1]-recon[idx-sp-w]+recon[idx-sp-w-1])
			}
		}
		row += w
	}
}

// The interleaved group kernels advance rowGroup rows one column at a
// time, top row first. Row m's sample at column k depends on its own
// column k-1 and on row m-1's columns k-1 and k, both already done, so
// the order of every prediction's operands (and hence every rounding)
// is exactly the serial scan's. The rows' dependency chains overlap
// instead of running back to back.
//
// Outliers sit in outl in serial scan order, where all of row m-1 comes
// before row m; the interleaved scan reaches them out of that order.
// Row 0 of the group continues the serial cursor; row m's cursor is
// unknown until it meets its first outlier, and groupOutlier derives it
// then from row m-1's cursor plus row m-1's outliers still ahead. Rows
// without outliers — nearly all of a smooth field — never pay for it.

// beginGroup sets up the outlier cursors for the group at row.
func (s *decompressState) beginGroup(row, w int) {
	s.grpRow, s.grpW = row, w
	s.grpCur = [rowGroup]int{s.outliers, -1, -1, -1}
}

// endGroup moves the serial cursor past the group: the last row with a
// known cursor has consumed its outliers, and the rows after it have
// none.
func (s *decompressState) endGroup() {
	for m := rowGroup - 1; m >= 0; m-- {
		if s.grpCur[m] >= 0 {
			s.outliers = s.grpCur[m]
			return
		}
	}
}

// groupOutlier returns the next outlier of row m of the current group
// at column k, where rows above m have consumed columns ≤ k.
func (s *decompressState) groupOutlier(m, k int) float64 {
	if s.grpCur[m] < 0 {
		m0 := m - 1
		for s.grpCur[m0] < 0 {
			m0--
		}
		// Rows m0+1..m-1 have met no outlier yet, so each one's cursor
		// is still its start: the row above's cursor plus its remaining
		// outliers.
		for r := m0; r < m; r++ {
			start := s.grpRow + r*s.grpW
			s.grpCur[r+1] = s.grpCur[r] + countOutliers(s.codes[start+k+1:start+s.grpW])
		}
	}
	s.grpCur[m]++
	return s.outlierAt(s.grpCur[m] - 1)
}

// groupFirst reconstructs column 0 of group row m from its code and
// prediction.
func (s *decompressState) groupFirst(m, code int, pv float64) float64 {
	if code != quant.UnpredictableCode {
		return dequant(pv, s.twoEB, code, s.center, s.f32)
	}
	return s.groupOutlier(m, 0)
}

// countOutliers counts the escape codes in codes.
func countOutliers(codes []int) int {
	n := 0
	for _, c := range codes {
		if c == quant.UnpredictableCode {
			n++
		}
	}
	return n
}

// group2DL1 reconstructs rows row..row+rowGroup-1 (2D Lorenzo,
// pv = left + up − upLeft) interleaved.
func (s *decompressState) group2DL1(row, w int) {
	s.beginGroup(row, w)
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	recon, codes := s.recon, s.codes
	u := recon[row-w : row]
	r0 := recon[row : row+w]
	r1 := recon[row+w : row+2*w]
	r2 := recon[row+2*w : row+3*w]
	r3 := recon[row+3*w : row+4*w]
	c0 := codes[row : row+w]
	c1 := codes[row+w : row+2*w]
	c2 := codes[row+2*w : row+3*w]
	c3 := codes[row+3*w : row+4*w]

	// Column 0: pv = up.
	p0 := s.groupFirst(0, c0[0], u[0])
	r0[0] = p0
	p1 := s.groupFirst(1, c1[0], p0)
	r1[0] = p1
	p2 := s.groupFirst(2, c2[0], p1)
	r2[0] = p2
	p3 := s.groupFirst(3, c3[0], p2)
	r3[0] = p3

	u = u[:len(r0)]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	c0, c1, c2, c3 = c0[:len(r0)], c1[:len(r0)], c2[:len(r0)], c3[:len(r0)]
	for k := 1; k < len(r0); k++ {
		var v0, v1, v2, v3 float64
		if c := c0[k]; c != quant.UnpredictableCode {
			v0 = dequant(p0+u[k]-u[k-1], twoEB, c, center, f32)
		} else {
			v0 = s.groupOutlier(0, k)
		}
		r0[k] = v0
		if c := c1[k]; c != quant.UnpredictableCode {
			v1 = dequant(p1+v0-p0, twoEB, c, center, f32)
		} else {
			v1 = s.groupOutlier(1, k)
		}
		r1[k] = v1
		if c := c2[k]; c != quant.UnpredictableCode {
			v2 = dequant(p2+v1-p1, twoEB, c, center, f32)
		} else {
			v2 = s.groupOutlier(2, k)
		}
		r2[k] = v2
		if c := c3[k]; c != quant.UnpredictableCode {
			v3 = dequant(p3+v2-p2, twoEB, c, center, f32)
		} else {
			v3 = s.groupOutlier(3, k)
		}
		r3[k] = v3
		p0, p1, p2, p3 = v0, v1, v2, v3
	}
	s.endGroup()
}

// group3DL1 reconstructs rows row..row+rowGroup-1 of a plane i ≥ 1
// (3D Lorenzo, interior rows j ≥ 1) interleaved. b* are the same rows
// one plane back, bu the row above the group one plane back.
func (s *decompressState) group3DL1(row, w, sp int) {
	s.beginGroup(row, w)
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	recon, codes := s.recon, s.codes
	u := recon[row-w : row]
	r0 := recon[row : row+w]
	r1 := recon[row+w : row+2*w]
	r2 := recon[row+2*w : row+3*w]
	r3 := recon[row+3*w : row+4*w]
	back := row - sp
	bu := recon[back-w : back]
	b0 := recon[back : back+w]
	b1 := recon[back+w : back+2*w]
	b2 := recon[back+2*w : back+3*w]
	b3 := recon[back+3*w : back+4*w]
	c0 := codes[row : row+w]
	c1 := codes[row+w : row+2*w]
	c2 := codes[row+2*w : row+3*w]
	c3 := codes[row+3*w : row+4*w]

	// Column 0: pv = up + back − backUp (Lorenzo in the (i,j) plane).
	p0 := s.groupFirst(0, c0[0], u[0]+b0[0]-bu[0])
	r0[0] = p0
	p1 := s.groupFirst(1, c1[0], p0+b1[0]-b0[0])
	r1[0] = p1
	p2 := s.groupFirst(2, c2[0], p1+b2[0]-b1[0])
	r2[0] = p2
	p3 := s.groupFirst(3, c3[0], p2+b3[0]-b2[0])
	r3[0] = p3

	u, bu = u[:len(r0)], bu[:len(r0)]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	b0, b1, b2, b3 = b0[:len(r0)], b1[:len(r0)], b2[:len(r0)], b3[:len(r0)]
	c0, c1, c2, c3 = c0[:len(r0)], c1[:len(r0)], c2[:len(r0)], c3[:len(r0)]
	for k := 1; k < len(r0); k++ {
		// Each prediction is left + up − upLeft + back − backLeft −
		// backUp + backUpLeft, summed left to right as in the serial scan.
		var v0, v1, v2, v3 float64
		if c := c0[k]; c != quant.UnpredictableCode {
			v0 = dequant(p0+u[k]-u[k-1]+b0[k]-b0[k-1]-bu[k]+bu[k-1], twoEB, c, center, f32)
		} else {
			v0 = s.groupOutlier(0, k)
		}
		r0[k] = v0
		if c := c1[k]; c != quant.UnpredictableCode {
			v1 = dequant(p1+v0-p0+b1[k]-b1[k-1]-b0[k]+b0[k-1], twoEB, c, center, f32)
		} else {
			v1 = s.groupOutlier(1, k)
		}
		r1[k] = v1
		if c := c2[k]; c != quant.UnpredictableCode {
			v2 = dequant(p2+v1-p1+b2[k]-b2[k-1]-b1[k]+b1[k-1], twoEB, c, center, f32)
		} else {
			v2 = s.groupOutlier(2, k)
		}
		r2[k] = v2
		if c := c3[k]; c != quant.UnpredictableCode {
			v3 = dequant(p3+v2-p2+b3[k]-b3[k-1]-b2[k]+b2[k-1], twoEB, c, center, f32)
		} else {
			v3 = s.groupOutlier(3, k)
		}
		r3[k] = v3
		p0, p1, p2, p3 = v0, v1, v2, v3
	}
	s.endGroup()
}

func (s *decompressState) decompress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	s.point(0, 0)
	if w > 1 {
		s.point(1, recon[0])
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*recon[j-1]-recon[j-2])
	}
	if h > 1 {
		s.point(w, recon[0])
		if w > 1 {
			s.point(w+1, recon[w]+recon[1]-recon[0])
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				recon[idx-w]-2*recon[idx-w-1]+recon[idx-w-2])
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*recon[row-w]-recon[row-w2])
		if w > 1 {
			idx := row + 1
			s.point(idx, recon[idx-1]+2*recon[idx-w]-2*recon[idx-w-1]-
				recon[idx-w2]+recon[idx-w2-1])
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				2*recon[idx-w]-4*recon[idx-w-1]+2*recon[idx-w-2]-
				recon[idx-w2]+2*recon[idx-w2-1]-recon[idx-w2-2])
		}
	}
}

func (s *decompressState) decompress3DL2(d, h, w int, pred *predictor.Predictor) {
	recon := s.recon
	fs := pred.Flat()
	deltas, coefs := fs.Deltas, fs.Coefs
	sp := h * w
	coord := make([]int, 3)
	for i := 0; i < d; i++ {
		coord[0] = i
		for j := 0; j < h; j++ {
			coord[1] = j
			row := i*sp + j*w
			lead := w
			if i >= 2 && j >= 2 {
				lead = 2
				if lead > w {
					lead = w
				}
			}
			for k := 0; k < lead; k++ {
				coord[2] = k
				s.point(row+k, pred.Predict(recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * recon[idx+dt]
				}
				s.point(idx, f)
			}
		}
	}
}
