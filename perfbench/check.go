package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/staticdict"
)

// Every answer is checked against an oracle the program does not share:
// match hits against internal/ahocorasick, compress containers by decoding,
// compressed-search events against ahocorasick over the decoded text, and
// parses by round trip plus an optimal phrase count from staticdict.BFSParse.
//
// Expected match hits are held in the byte form encoding/json gives the
// server's hit list, so the common case is one bytes comparison. A body that
// differs is decoded and compared field by field before it is called wrong.

type hit struct {
	Pos     int `json:"pos"`
	Pattern int `json:"pattern"`
	Length  int `json:"length"`
}

// expectedHits returns the canonical hit list of text against the
// automaton: the longest pattern starting at each position that has one.
func expectedHits(ac *ahocorasick.Automaton, text []byte) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	first := true
	for i, p := range ac.Match(text) {
		if p < 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(`{"pos":`)
		b.WriteString(strconv.Itoa(i))
		b.WriteString(`,"pattern":`)
		b.WriteString(strconv.Itoa(int(p)))
		b.WriteString(`,"length":`)
		b.WriteString(strconv.Itoa(int(ac.PatternLen(p))))
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.Bytes()
}

var hitsKey = []byte(`"hits":`)

// hitsFast reports whether body's hit list is byte-identical to want.
func hitsFast(body, want []byte) bool {
	i := bytes.Index(body, hitsKey)
	if i < 0 {
		return false
	}
	rest := body[i+len(hitsKey):]
	return bytes.HasPrefix(rest, want) && string(bytes.TrimSpace(rest[len(want):])) == "}"
}

// hitsSlow decodes body and compares its n and hits with the expectation.
func hitsSlow(body, want []byte, n int) error {
	var got struct {
		N    *int  `json:"n"`
		Hits []hit `json:"hits"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable match answer: %v", err)
	}
	var exp []hit
	if err := json.Unmarshal(want, &exp); err != nil {
		return err
	}
	if got.N == nil || *got.N != n {
		return fmt.Errorf("answer covers %v bytes, want %d", got.N, n)
	}
	if len(got.Hits) != len(exp) {
		return fmt.Errorf("%d hits, want %d", len(got.Hits), len(exp))
	}
	for i := range exp {
		if got.Hits[i] != exp[i] {
			return fmt.Errorf("hit %d is %+v, want %+v", i, got.Hits[i], exp[i])
		}
	}
	return nil
}

// hitsChecker checks a match answer against its expected hit list.
func hitsChecker(want []byte, n int) checker {
	return checker{
		quick: func(body []byte) bool { return hitsFast(body, want) },
		full:  func(body []byte) error { return hitsSlow(body, want, n) },
	}
}

// checkCompress decodes a /v1/compress answer and compares the container's
// decoding with the text.
func checkCompress(body, text []byte) error {
	var got struct {
		N       int    `json:"n"`
		DataB64 string `json:"dataB64"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable compress answer: %v", err)
	}
	raw, err := base64.StdEncoding.DecodeString(got.DataB64)
	if err != nil {
		return fmt.Errorf("container base64: %v", err)
	}
	c, err := lz.DecodeStream(raw)
	if err != nil {
		return fmt.Errorf("container: %v", err)
	}
	dec, err := lz.Decode(c)
	if err != nil {
		return fmt.Errorf("container decode: %v", err)
	}
	if got.N != len(text) || !bytes.Equal(dec, text) {
		return fmt.Errorf("container decodes to %d bytes that differ from the %d-byte text", len(dec), len(text))
	}
	return nil
}

// parseOracle checks §5 parses against one prefix-closed dictionary.
type parseOracle struct {
	dict *core.Dictionary
	ac   *ahocorasick.Automaton
	m    *pram.Machine
}

func newParseOracle(patterns [][]byte) *parseOracle {
	m := pram.NewSequential()
	return &parseOracle{dict: core.Preprocess(m, patterns, core.Options{}), ac: ahocorasick.New(patterns), m: m}
}

// optimum is the minimum phrase count of text, by breadth-first search over
// every dictionary edge.
func (o *parseOracle) optimum(text []byte) (int, error) {
	maxLen := make([]int32, len(text))
	for i, p := range o.ac.Match(text) {
		if p >= 0 {
			maxLen[i] = o.ac.PatternLen(p)
		}
	}
	ph, err := staticdict.BFSParse(len(text), maxLen)
	return len(ph), err
}

// check verifies a parse answer: its references expand back to text through
// DecompressStatic, and it has the optimal number of phrases.
func (o *parseOracle) check(body, text []byte, optimum int) error {
	var got struct {
		Phrases int     `json:"phrases"`
		Refs    []int32 `json:"refs"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable parse answer: %v", err)
	}
	dec, err := o.dict.DecompressStatic(o.m, got.Refs)
	if err != nil {
		return fmt.Errorf("refs do not expand: %v", err)
	}
	if !bytes.Equal(dec, text) {
		return fmt.Errorf("refs expand to a different text")
	}
	if len(got.Refs) != optimum || got.Phrases != optimum {
		return fmt.Errorf("%d phrases, optimum %d", len(got.Refs), optimum)
	}
	return nil
}
