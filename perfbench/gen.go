package main

import (
	"math/rand"
	"strings"
)

// genVocab returns n distinct lowercase words of 3 to 10 letters drawn
// from the seed.
func genVocab(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	buf := make([]byte, 10)
	for len(words) < n {
		w := buf[:3+rng.Intn(8)]
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		if s := string(w); !seen[s] {
			seen[s] = true
			words = append(words, s)
		}
	}
	return words
}

// genCorpus returns lines of perLine space-separated tokens, each
// drawn uniformly from vocab. The lines share one backing string.
func genCorpus(seed int64, vocab []string, lines, perLine int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var b strings.Builder
	ends := make([]int, lines)
	for i := range ends {
		for t := 0; t < perLine; t++ {
			if t > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(vocab[rng.Intn(len(vocab))])
		}
		ends[i] = b.Len()
	}
	text := b.String()
	out := make([]string, lines)
	start := 0
	for i, end := range ends {
		out[i] = text[start:end]
		start = end
	}
	return out
}

// genJobOrder returns n indices into the job mix for one client. Every
// block of len(mix) consecutive entries holds each spec exactly once,
// in a seeded order, so the mix is drawn evenly at any run length.
func genJobOrder(seed int64, client, kinds, n int) []int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	out := make([]int, 0, n+kinds)
	for len(out) < n {
		out = append(out, rng.Perm(kinds)...)
	}
	return out[:n]
}
