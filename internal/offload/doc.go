// Equation map — where each formula of the paper's §III-D lives:
//
//	eq. 8    uplink bandwidth constraint     Controller.bandwidthCap
//	eq. 9    edge share split F^e_{i,1}      Controller.edgeBlockShare
//	eq. 10   local queue recurrence Q_i      Controller.StepQueues
//	eq. 11   edge queue recurrence H_i       Controller.StepQueues
//	eq. 12   device cost T_i^d               Controller.Eval (TD)
//	eq. 13   edge cost T_i^e                 Controller.Eval (TE)
//	eq. 14   slot cost Y_i                   Controller.Eval (TD + TE)
//	eq. 16   drift-plus-penalty              Controller.Eval (Objective)
//	eq. 17   Lemma-1 drift bound             verified by TestLemma1DriftBound
//	eq. 18   per-slot problem P1'            Controller.decideCentralized (exact)
//	eqs. 19-20  decentralized balance        Controller.Decide
//	eq. 21   Theorem-3 B/V gap               measured by the ablation-v experiment
//	eq. 26   allocation objective f(P)       meanInferenceTime
//	eq. 27   KKT closed form p_i             Allocate
//
// Implementation deviations from the literal equations (backlog-aware
// eq. 9 split, corner checks on the balance rule) are documented on the
// respective functions and in DESIGN.md §6.
package offload
