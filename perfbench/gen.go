package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"math/rand/v2"
)

// The benchmark's inputs are generated here, from the seed alone, with the
// benchmark's own samplers: a change to the program's internal/textgen
// cannot change what the program is measured on.

// rng is a seeded PCG stream. derive gives an independent stream per purpose,
// so adding draws to one input does not shift another.
type rng struct{ *rand.Rand }

func newRNG(seed uint64, purpose string) rng {
	h := sha256.Sum256([]byte(purpose))
	return rng{rand.New(rand.NewPCG(seed, binary.LittleEndian.Uint64(h[:8])))}
}

// uniform returns n bytes drawn uniformly from sigma letters starting at base.
func (r rng) uniform(n, sigma int, base byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = base + byte(r.IntN(sigma))
	}
	return out
}

// dna returns n bytes over ACGT with human-like skew (GC ≈ 0.42).
func (r rng) dna(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		switch f := r.Float64(); {
		case f < 0.29:
			out[i] = 'A'
		case f < 0.58:
			out[i] = 'T'
		case f < 0.79:
			out[i] = 'G'
		default:
			out[i] = 'C'
		}
	}
	return out
}

// markov returns n bytes from an order-1 Markov chain over 'a'..'a'+sigma-1
// whose rows are skewed, giving text-like redundancy.
func (r rng) markov(n, sigma int) []byte {
	rows := make([][]float64, sigma)
	for i := range rows {
		row := make([]float64, sigma)
		sum := 0.0
		for j := range row {
			row[j] = r.ExpFloat64() * r.ExpFloat64()
			sum += row[j]
		}
		acc := 0.0
		for j := range row {
			acc += row[j] / sum
			row[j] = acc
		}
		rows[i] = row
	}
	out := make([]byte, n)
	state := r.IntN(sigma)
	for i := range out {
		out[i] = 'a' + byte(state)
		f, next := r.Float64(), sigma-1
		for j, c := range rows[state] {
			if f < c {
				next = j
				break
			}
		}
		state = next
	}
	return out
}

// dictionary draws k distinct patterns with lengths in [minLen, maxLen] over
// sigma letters from base. Lengths take each value in turn, so the share of
// short patterns, which sets the hit density, is the same for every seed.
// Distinct patterns make the longest match at each position name exactly one
// pattern id, so answers compare by id.
func (r rng) dictionary(k, minLen, maxLen, sigma int, base byte) [][]byte {
	seen := make(map[string]bool, k)
	out := make([][]byte, 0, k)
	for len(out) < k {
		p := r.uniform(minLen+len(out)%(maxLen-minLen+1), sigma, base)
		if !seen[string(p)] {
			seen[string(p)] = true
			out = append(out, p)
		}
	}
	return out
}

// prefixClosed returns the prefix closure of numBase random words over
// sigma letters, plus every single letter, so the §5 parse of any text over
// those letters exists. Word lengths take each value of 1..maxLen in turn.
func (r rng) prefixClosed(numBase, maxLen, sigma int, base byte) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	add := func(w []byte) {
		if !seen[string(w)] {
			seen[string(w)] = true
			out = append(out, append([]byte(nil), w...))
		}
	}
	for c := 0; c < sigma; c++ {
		add([]byte{base + byte(c)})
	}
	for i := 0; i < numBase; i++ {
		w := r.uniform(1+i%maxLen, sigma, base)
		for p := 1; p <= len(w); p++ {
			add(w[:p])
		}
	}
	return out
}

// plant overwrites text with dictionary patterns at random positions, about
// one occurrence per gap bytes.
func (r rng) plant(text []byte, dict [][]byte, gap int) {
	for n := len(text) / gap; n > 0; n-- {
		p := dict[r.IntN(len(dict))]
		if len(p) < len(text) {
			copy(text[r.IntN(len(text)-len(p)+1):], p)
		}
	}
}

// repetitive returns n bytes of a random block of blockLen letters repeated,
// with each byte mutated to a random letter with probability rate.
func (r rng) repetitive(n, blockLen, sigma int, rate float64) []byte {
	block := r.uniform(blockLen, sigma, 'a')
	out := make([]byte, n)
	for i := range out {
		out[i] = block[i%blockLen]
		if r.Float64() < rate {
			out[i] = 'a' + byte(r.IntN(sigma))
		}
	}
	return out
}

// zipfRank draws a rank in [0, n) with P(rank) ∝ 1/(rank+1).
func (r rng) zipfRank(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse CDF of the continuous 1/x density on [1, n+1).
	v := int(math.Exp(r.Float64()*math.Log(float64(n+1)))) - 1
	return min(max(v, 0), n-1)
}

// textBody is the JSON body of a match or parse request.
func textBody(text []byte) []byte {
	b, _ := json.Marshal(map[string]string{"textB64": base64.StdEncoding.EncodeToString(text)})
	return b
}

// dictBody is the JSON body of a dictionary create.
func dictBody(patterns [][]byte) []byte {
	enc := make([]string, len(patterns))
	for i, p := range patterns {
		enc[i] = base64.StdEncoding.EncodeToString(p)
	}
	b, _ := json.Marshal(map[string][]string{"patternsB64": enc})
	return b
}

// streamHash accumulates the generated request stream: method, route
// template, body and (open loop) due time of each request in order.
type streamHash struct{ h hash.Hash }

func newStreamHash() *streamHash { return &streamHash{sha256.New()} }

func (s *streamHash) add(route string, body []byte, dueNs int64) {
	var n [16]byte
	binary.LittleEndian.PutUint64(n[:8], uint64(len(body)))
	binary.LittleEndian.PutUint64(n[8:], uint64(dueNs))
	s.h.Write([]byte(route))
	s.h.Write(n[:])
	s.h.Write(body)
}

func (s *streamHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }
