package memsim

// PredictMisses estimates, from a reuse-distance histogram over *line*
// addresses, the number of misses a fully-associative LRU cache of the given
// capacity (in lines) would incur: an access misses iff its stack distance
// is at least the capacity, plus one compulsory miss per cold access
// (Mattson et al. [24] — the "one-pass, all cache sizes" property of stack
// distances, and the analytical tool behind the paper's §3.2 reasoning that
// distances below the cache size are hits and above are misses).
func PredictMisses(h *Histogram, capacityLines int) int64 {
	misses := h.InfiniteCount()
	for _, c := range h.counts[min(max(capacityLines, 0), len(h.counts)):] {
		misses += c
	}
	return misses
}

// PredictMissRatio is PredictMisses normalized by the total access count
// (0 for an empty histogram).
func PredictMissRatio(h *Histogram, capacityLines int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(PredictMisses(h, capacityLines)) / float64(h.total)
}

// MissCurve evaluates the predicted miss ratio at each capacity, yielding
// the classic miss-ratio curve of the trace. Capacities are in lines.
func MissCurve(h *Histogram, capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for k, c := range capacities {
		out[k] = PredictMissRatio(h, c)
	}
	return out
}
