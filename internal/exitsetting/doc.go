// Equation map — where each formula of the paper's §III-C lives:
//
//	eq. 1   t^d (device stage)             Instance.stageCosts (Device term)
//	eq. 2   t^e (edge stage)               Instance.stageCosts (Edge term)
//	eq. 3   t^c (cloud stage)              Instance.stageCosts (Cloud term)
//	eq. 4   P0 objective T(E)              Instance.Cost
//	eq. 5   two-exit cost T({i, m, -})     Instance.twoExitCost
//	eq. 6   Theorem-1 dominance identity   verified by TestTheorem1Dominance
//	eq. 7   E_best over pruned rounds      Instance.BranchAndBound
//	Thm. 2  O(m ln m) average complexity   TestBranchAndBoundComplexityScaling
//
// The partition-only variant used by the Neurosurgeon baseline is
// Instance.costNoExits; the beyond-paper joint model T(E, x) is
// Instance.costWithRatio / SolveJoint (see the ext-joint experiment).
package exitsetting
