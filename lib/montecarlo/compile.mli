(** The confidence compilation engine: pay Monte-Carlo cost only for the
    hard cases.

    Most real lineage decomposes (Koch & Olteanu, "Conditioning probabilistic
    databases"): after normalization ({!Lineage.normalize}) a tuple's DNF
    usually splits into variable-disjoint independent components, each of
    which factors further through disjoint (mutually exclusive) expansions.
    [compile] applies those rewrites — independent-OR, disjoint-OR on a
    variable bound in every clause, and {e bounded} Shannon expansion on the
    most-shared variable — solving everything it can in closed form and
    leaving only the irreducible residues as prepared {!Dnf} leaves for the
    engine's one adaptive Karp-Luby loop ({!Karp_luby.adaptive_partial}).
    {!solve} is the single residual pass every approximate confidence goes
    through — batches, top-k, conditioning and serve alike.

    {2 The compile kernel}

    [compile] works on clauses local to one call.  The DNF's variables are
    renumbered [0..k−1] in increasing W-table id, and each clause becomes a
    sorted, unboxed [int array] of binding codes
    [(local lsl 31) lor value].  A monomorphic comparison on codes orders
    clauses exactly as [Assignment.compare] orders the originals (length
    first, then lexicographically), so normalization at every node — sort,
    deduplicate, collapse on the empty clause, drop subsumed clauses up to
    {!Lineage.subsumption_cap} — matches {!Lineage.normalize} clause for
    clause.  One pass per node does two jobs.  It finds variable-connected
    components with owner and parent [int array]s.  It also counts the
    clauses each variable occurs in, which gives the pivot: most clauses,
    smallest variable on ties, universal when it occurs in every clause.
    Conditioning works on the array form directly.  A component of a fully
    normalized set (at most the cap) is already normalized and is not
    normalized again.

    Every [Sum] or independent-OR node whose children are all constants is
    folded into one constant, computed by the same left fold {!value}
    would run on it, so every float keeps its bits.  An exact tuple
    therefore compiles to a single node, and only subtrees that reach a
    residual keep their structure.

    {2 Error propagation}

    The compiled tree combines children only through
    [Σ wᵢ·pᵢ (Σ wᵢ ≤ 1, wᵢ ≥ 0)] and [1 − Π(1 − pᵢ)].  Both preserve
    relative error: if every residual estimate satisfies
    [p̂ᵢ ∈ [(1−ε)pᵢ, (1+ε)pᵢ]], the root value is within relative [ε] of the
    true probability.  (Linear combinations are immediate; for the
    independent-OR, [f(ε) = 1 − Π(1 − (1+ε)pᵢ)] is concave in [ε] with
    [f'(0) = Σᵢ pᵢ·Π_{j≠i}(1−pⱼ) ≤ 1 − Π(1−pᵢ) = f(0)], so
    [f(ε) ≤ (1+ε)f(0)]; the lower side follows from the chord through
    [f(−1) = 0].)  Hence {!solve} estimates each residual at relative [ε]
    with failure budget [δ/r] and the union bound gives an overall (ε, δ)
    guarantee — the exact probability mass never spends a trial. *)

open Pqdb_numeric
open Pqdb_urel

type t

val default_fuel : int

val compile : ?fuel:int -> Wtable.t -> Assignment.t list -> t
(** Normalize and decompose the DNF.  [fuel] (default {!default_fuel})
    bounds the Shannon-expansion work: each pivot charges its domain size
    plus the clause count, and once exhausted the remaining clause set
    becomes a residual leaf.  [fuel = 0] disables compilation beyond
    normalization, trivial cases and single clauses — the pure-FPRAS
    baseline.  Independent-component splits and disjoint-OR expansions are
    free (they are linear-time and always shrink the problem).
    Deterministic: the tree and residual numbering are a pure function of
    (W table, clause list, fuel).
    @raise Invalid_argument when a binding value is negative or does not
    fit the 31-bit value field of the clause code. *)

val is_exact : t -> bool
val exact_value : t -> float option
(** [Some p] iff compilation resolved the whole DNF ([is_exact]). *)

val residuals : t -> Dnf.t array
(** The irreducible clause sets, prepared for sampling, in deterministic
    order. *)

val residual_count : t -> int

val residual_weights : t -> float array
(** Per residual: the summed path weight from the root, an upper bound on
    [∂P/∂p̂ᵢ] — how much of the final value the residual can account for. *)

val value : t -> float array -> float
(** Evaluate the tree given one probability estimate per residual (pass
    [[||]] when [is_exact]).  Monotone in every estimate, so plugging in
    per-residual interval endpoints yields sound interval endpoints for the
    tuple confidence (top-k uses this).
    @raise Invalid_argument on an estimate-count mismatch. *)

val size : t -> int
(** Node count after constant folding (diagnostics): [1] whenever
    [is_exact], otherwise the nodes on paths that reach a residual plus
    their folded constant siblings. *)

type outcome = {
  value : float;  (** the (ε, δ) estimate — exact when [trials = 0] *)
  trials : int;  (** estimator calls spent on residuals *)
  residual_mass : float;
      (** Σ path-weight·p̂ over residuals, clamped to [value]: the share of
          the reported probability that rests on sampling.  [0] when exact;
          [1 − residual_mass/value] is the per-tuple exact fraction. *)
  lo : float;
  hi : float;
      (** a sound probability interval for the tuple confidence, holding
          with probability ≥ 1 − δ: per-residual certified intervals pushed
          through the monotone tree, intersected with the relative-ε bracket
          when [complete].  Degenerates to a point when exact; never wider
          than the a-priori {!vacuous_interval}. *)
  achieved_eps : float;
      (** the relative error actually certified at confidence δ: the
          requested ε when [complete], the worst residual's partial-trial
          ε′ otherwise ([infinity] when some residual is vacuous, [0] when
          exact).  When sampling never ran at all — fallback sampling died,
          budget exhausted before the first trial — this is instead the
          {e absolute} half-width of the a-priori {!vacuous_interval}, the
          honest certificate actually held, rather than a claim about a
          relative contract that was never attempted. *)
  complete : bool;  (** the requested (ε, δ) contract was met *)
}

val vacuous_interval : t -> float * float
(** The a-priori bracket on the tuple confidence, free of any sampling:
    the monotone tree evaluated with every residual at 0 (the exact
    compiled mass — a hard floor) and at its full mass [min(1, Mᵢ)].  A
    point when [is_exact]. *)

val solve : ?budget:Budget.t -> Rng.t -> t -> eps:float -> delta:float -> outcome
(** Estimate every residual with {!Karp_luby.adaptive_partial} at
    [(ε, δ/r)] ([r] residuals) and evaluate the tree; by the error
    propagation above and the union bound the result is an (ε, δ) relative
    approximation of the tuple confidence.  Residuals are sampled in order
    from the given RNG, so the outcome is deterministic per RNG state.
    Every outcome satisfies [0 ≤ lo ≤ value ≤ hi ≤ 1]: the estimate is
    projected into its certified bracket.

    {e Truncation guard}: bounded Shannon expansion duplicates clauses
    across branches, so the residual leaves can be collectively more
    expensive than the original DNF.  [solve] compares the worst-case
    Chernoff caps of the two problems and, when cheaper, runs one adaptive
    pass at (ε, δ) over the whole normalized DNF instead, intersecting its
    bracket with the compiled tree's — compilation never costs more than a
    bounded overhead relative to pure FPRAS.

    {e Degradation}: estimator failures are contained per residual — a
    residual whose sampling raises keeps its vacuous interval and the tuple
    still comes back with a sound (wider) [lo, hi] and [complete = false].
    Every pass charges the optional [budget] and stops at its exhaustion,
    reporting the interval its partial trials certify.  Without a budget
    (or with one that never exhausts — the results are bit-identical) the
    call returns [complete = true] with [achieved_eps = eps].
    @raise Invalid_argument when [eps <= 0] or [delta <= 0]. *)
