package coloring

// This file implements the Kuhn-Wattenhofer colour-reduction schedule used
// by the distributed machines to shrink the O(Δ²)-colour palette left by
// the Linial phase down to the target palette in O(Δ · log(K/Δ)) rounds —
// instead of the naive one-class-per-round reduction's O(K) rounds.
//
// One halving iteration partitions the palette [K] into blocks of 2·tgt
// consecutive colours (tgt ≥ Δ+1). Within every block, the upper tgt colour
// classes are reduced one class per round into the block's lower tgt
// colours: a recolouring node has at most Δ < tgt neighbours, and only
// same-block neighbours can occupy the block's lower colours, so a free
// colour always exists, and no two adjacent nodes recolour in the same
// round (they would share a colour class). After tgt rounds every colour
// sits in the lower half of its block and the palette is relabelled to
// ⌈K/(2·tgt)⌉·tgt colours. Iterating halves the palette until it reaches
// tgt.

// kwSchedule returns the palette size before each halving iteration, ending
// when the palette is at most tgt. Every node computes the same schedule
// from (k0, tgt), which keeps the machines synchronized for free.
func kwSchedule(k, tgt int) []int {
	var out []int
	for k > tgt {
		out = append(out, k)
		blocks := (k + 2*tgt - 1) / (2 * tgt)
		k = blocks * tgt
	}
	return out
}

// kwRounds is the total number of communication rounds of the whole
// reduction: tgt rounds per halving iteration.
func kwRounds(k, tgt int) int {
	return len(kwSchedule(k, tgt)) * tgt
}

// kwReduces reports whether a node of the given colour recolours in round
// j of a halving iteration: whether its class is the one being reduced.
// It is the only round in which kwStep reads the neighbours' colours, so a
// machine that must gather those colours first gathers them only then.
func kwReduces(tgt, j, color int) bool {
	return color%(2*tgt) == tgt+j
}

// kwStep executes one node's side of round j (0 ≤ j < tgt) of a halving
// iteration: given the node's colour and its neighbours' colours (same
// labelling), it returns the node's colour after the round, applying the
// end-of-iteration relabelling when j == tgt-1. neighborColors is read
// only when kwReduces(tgt, j, color); used is the caller's scratch of at
// least tgt entries, overwritten. It returns ok=false if no free colour
// exists (impossible when the degree bound of the schedule holds).
func kwStep(tgt, j, color int, neighborColors []int, used []bool) (int, bool) {
	blockSize := 2 * tgt
	b := color / blockSize
	off := color - b*blockSize
	if kwReduces(tgt, j, color) {
		// My class is being reduced this round: take the smallest free
		// offset in [0, tgt) of my block.
		used = used[:tgt]
		clear(used)
		for _, nc := range neighborColors {
			if nc/blockSize != b {
				continue
			}
			if noff := nc - b*blockSize; noff < tgt {
				used[noff] = true
			}
		}
		off = -1
		for o := 0; o < tgt; o++ {
			if !used[o] {
				off = o
				break
			}
		}
		if off < 0 {
			return 0, false
		}
	}
	if j == tgt-1 {
		// End of the iteration: every offset is now below tgt; compact the
		// palette to blocks of size tgt.
		return b*tgt + off, true
	}
	return b*blockSize + off, true
}
