package mht

// Buddy inclusion (§3.3.2): leaves are partitioned into groups of 2^g where
// g is the largest integer satisfying (2^g − 1)·|leaf| ≤ g·|h|. Whenever a
// leaf must enter the VO, its whole group is included as data, which is
// cheaper than transmitting the complementary digests that would otherwise
// cover the group's siblings.

// BuddyGroupSize returns the group size 2^g for the given leaf and digest
// sizes. With the paper's defaults (|h| = 16): 8-byte leaves → groups of 4,
// 4-byte leaves → groups of 16.
func BuddyGroupSize(leafSize, hashSize int) int {
	if leafSize <= 0 || hashSize <= 0 {
		return 1
	}
	g := 0
	for ((1<<(g+1))-1)*leafSize <= (g+1)*hashSize {
		g++
	}
	return 1 << g
}

// ExpandBuddies returns the sorted, deduplicated union of every requested
// position's buddy group, clipped to [0, n). want must be sorted ascending.
func ExpandBuddies(want []int, group, n int) []int {
	return AppendBuddies(make([]int, 0, len(want)*max(group, 1)), want, group, n)
}

// AppendBuddies is ExpandBuddies appending to dst, for callers that expand
// many position sets into one reused buffer.
func AppendBuddies(dst, want []int, group, n int) []int {
	if group <= 1 {
		return append(dst, want...)
	}
	lastGroup := -1
	for _, w := range want {
		g := w / group
		if g == lastGroup {
			continue
		}
		lastGroup = g
		lo := g * group
		hi := lo + group
		if hi > n {
			hi = n
		}
		for p := lo; p < hi; p++ {
			dst = append(dst, p)
		}
	}
	return dst
}

// RoundUpPrefix rounds a prefix length k up to a buddy-group boundary,
// clipped to n. It is the prefix special case of ExpandBuddies.
func RoundUpPrefix(k, group, n int) int {
	if group <= 1 || k <= 0 {
		return min(k, n)
	}
	r := ((k + group - 1) / group) * group
	return min(r, n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
