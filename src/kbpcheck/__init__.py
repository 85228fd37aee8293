"""kbpcheck: explicit-state model checking for the logic of knowledge and time,
plus a refinement toolkit that turns knowledge-based programs into concrete,
provably equivalent implementations.

The bundled case study is a multi-round Dining Cryptographers two-phase
broadcast (slot reservation, then transmission) over a three-agent key ring.
"""

from .model import InterpretedSystem, ModelError, Point, UsageError, VariableDecl
from .formula import (Atom, Const, And, Or, Not, Implies, Iff, Know, Next,
                      Evaluator, LocalScope, Verdict, check_valid_at, eval_at,
                      fmt, parse_formula)
from .engine import (ENGINE_MODES, AgentProgram, Assign, PhaseBlock,
                     ProtocolModel, Scenario, execute_kbp, generate_runs,
                     verify_kbp_fixpoint)
from .reduction import AgreementReport, engines_agree, random_formulas
from .dc import (DcParams, PredicateDef, build_cdc, builtin_predicate,
                 conflict_macro, dc_macros, final_predicates,
                 load_predicates_file, load_scenario_file, pinned_scenario,
                 referendum_scenario, sender_macro, spec, spec_instances,
                 target_formula, unknown_scenario)
from .refine import (CandidateVerdict, Counterexample, RefinementReport,
                     SynthesizedPredicate, check_candidate,
                     counterexample_from_verdict, diff_candidates,
                     refine_sequence, render_counterexample,
                     synthesize_predicate)

__version__ = "0.1.0"
