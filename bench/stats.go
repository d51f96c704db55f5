package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// shufflePass orders a pass's operations from the seed and the pass
// number alone, so the whole run's sequence repeats for a seed.
func shufflePass(seq []int, seed int64, pass int) {
	sort.Ints(seq)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median averages the two middle samples of an even-sized slice, as
// Python's statistics.median does.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the default
// exclusive method), which is what the driver uses for run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; NaN
// with fewer than two samples.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// checksum identifies a bag of rows independently of row order: the row
// count plus the wrapping sum of one hash per row.
type checksum struct {
	Rows int
	Sum  uint64
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashValue mixes the value's kind in after its payload, so that no
// integer, float or string hashes like NULL or like one another's bits.
func hashValue(v Value) uint64 {
	switch v.Kind {
	case kindInt:
		return mix(mix(uint64(v.I)) + 1)
	case kindFloat:
		return mix(mix(math.Float64bits(v.F)) + 2)
	case kindString:
		h := fnv.New64a()
		h.Write([]byte(v.S))
		return mix(mix(h.Sum64()) + 3)
	}
	return mix(0)
}

func (c *checksum) add(row []Value) {
	h := uint64(len(row))
	for _, v := range row {
		h = mix(h*31 + hashValue(v))
	}
	c.Rows++
	c.Sum += h
}

// checksumTable hashes the table's rows with the columns taken in attrs
// order, so two plans that lay the result out differently agree.
func checksumTable(t *Table, attrs []string) (checksum, bool) {
	slots := make([]int, len(attrs))
	for i, a := range attrs {
		s, ok := t.Schema.Slot(a)
		if !ok {
			return checksum{}, false
		}
		slots[i] = s
	}
	var c checksum
	buf := make([]Value, len(slots))
	for _, row := range t.Rows {
		for i, s := range slots {
			buf[i] = row[s]
		}
		c.add(buf)
	}
	return c, true
}
