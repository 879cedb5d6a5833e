(** The Karp-Luby FPRAS for confidence computation (Section 4,
    Proposition 4.2).

    Running the estimator [m] times and averaging gives
    [p̂ = X·M/m] with [Pr(|p̂ − p| ≥ ε·p) ≤ 2·exp(−m·ε²/(3·|F|))]; choosing
    [m = ⌈3·|F|·ln(2/δ)/ε²⌉] yields an (ε, δ) guarantee.

    Two halves: the paper's fixed-budget FPRAS ({!run}, {!fpras} and their
    parallel variants — the reference the tests and benches measure
    against), and the engine's single adaptive loop {!adaptive_partial},
    which every approximate confidence in pqdb is computed with. *)

open Pqdb_numeric

val run : Rng.t -> Dnf.t -> trials:int -> float
(** [p̂] after exactly [trials] estimator calls.  Degenerate DNFs (no clauses
    / empty clause) return 0 or 1 without sampling. *)

val run_parallel : ?nworkers:int -> Rng.t -> Dnf.t -> trials:int -> float
(** As {!run}, with the trial budget sharded over up to [nworkers] domains
    (default {!Pool.default_workers}), one {!Pqdb_numeric.Rng.split_n} child
    stream per shard.  For a fixed (parent RNG state, [nworkers], [trials])
    the estimate is bit-deterministic — shard sizes, shard streams and the
    integer success sum do not depend on scheduling — and each shard runs the
    same unbiased estimator as {!run}, so the statistical (ε, δ) guarantees
    are unchanged.  [nworkers = 1] runs on the calling domain alone (no
    spawns) but still draws from a child stream, so it reproduces
    [run_parallel], not [run].
    @raise Invalid_argument when [trials <= 0] or [nworkers <= 0]. *)

val fpras : Rng.t -> Dnf.t -> eps:float -> delta:float -> float
(** The (ε, δ) approximation scheme: picks the Chernoff-derived trial count.
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)

val fpras_parallel :
  ?nworkers:int -> Rng.t -> Dnf.t -> eps:float -> delta:float -> float
(** {!fpras} with the trial budget run through {!run_parallel}. *)

val trials_for : Dnf.t -> eps:float -> delta:float -> int
(** The [m] used by {!fpras} (0 for degenerate DNFs). *)

(** {1 Adaptive stopping (Dagum–Karp–Luby–Ross)}

    The fixed Chernoff budget [3·|F|·ln(2/δ)/ε²] provisions for the
    worst-case mean [μ = p/M ≥ 1/|F|].  The optimal-stopping rule of
    Dagum, Karp, Luby and Ross ("An optimal algorithm for Monte Carlo
    estimation") instead spends [O(ln(1/δ)/(ε²·μ))] expected trials — the
    win is a factor of [|F|·μ], which on real lineage (few deeply
    overlapping clauses) is most of the budget.

    This is the one adaptive sampling loop of the engine: every approximate
    confidence ({!Compile.solve}, and through it {!Confidence}, top-k,
    conditioning and serve) is estimated here.  An optional {!Budget} stops
    it early; the result then reports what the trials spent so far certify:
    a sound probability interval [[p_lo, p_hi]] and the achieved relative
    error [p_eps] at the requested confidence δ.  Without a budget the loop
    simply never stops early — a never-exhausted budget gives bit-identical
    results. *)

type partial = {
  p_estimate : float;
      (** point estimate, always inside [[p_lo, p_hi]] (0 when no trial
          ran) *)
  p_lo : float;        (** certified lower bound, in [0, 1] *)
  p_hi : float;        (** certified upper bound, ≤ min(1, M) *)
  p_trials : int;      (** estimator calls actually spent *)
  p_eps : float;
      (** achieved relative error at confidence δ: the requested ε when
          complete, [√(3·|F|·ln(2/δ)/n)] after [n] partial trials,
          [infinity] when the interval is vacuous, 0 when exact *)
  p_complete : bool;   (** the requested (ε, δ) contract was met *)
}

val adaptive_partial :
  ?budget:Budget.t -> Rng.t -> Dnf.t -> eps:float -> delta:float -> partial
(** One DKLR stopping-rule phase at (ε, δ): sample until the success count
    reaches [Υ₁ = 1 + (1+ε)·4(e−2)·ln(2/δ)/ε²], capped at the fixed
    Chernoff budget {!trials_for} (whose plain mean meets (ε, δ) by
    construction), so [Pr(|p̂ − p| ≥ ε·p) ≤ δ] on both exits.  The estimate
    is projected into its certified interval, which never increases the
    error.  With a [budget], {!Budget.exhausted} is polled before each
    trial and each trial is charged to it; on exhaustion the partial-trial
    Chernoff inversion above yields the interval (vacuous [0, min(1, M)]
    when nothing can be said).  Degenerate and single-clause DNFs are
    answered exactly with a point interval and 0 trials.  Deterministic
    given the RNG state.
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)
