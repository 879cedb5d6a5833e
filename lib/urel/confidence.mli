(** Exact confidence computation — the #P-hard operation of Theorem 3.4.

    The confidence of tuple [t̄] is the weight of the DNF
    [F = {f | ⟨f, t̄⟩ ∈ U_R}]:
    [p = Σ_{f* : ∃f ∈ F, f* ∈ ω(f)} p_{f*}] (Section 4).

    Two exact algorithms are provided:
    - {!by_enumeration}: sum over all total assignments of the variables
      mentioned by [F] — Θ(Π |Dom Xᵢ|), the brute-force baseline;
    - {!by_shannon}: Shannon expansion (variable elimination) with
      memoisation on the residual clause set — the classical exact technique
      (still exponential in the worst case, as it must be), usually far
      faster on structured inputs.

    Both return exact rationals; {!exact} dispatches to Shannon. *)

open Pqdb_numeric

val by_enumeration : Wtable.t -> Assignment.t list -> Rational.t
val by_shannon : Wtable.t -> Assignment.t list -> Rational.t
val exact : Wtable.t -> Assignment.t list -> Rational.t

val by_decomposition : Wtable.t -> Assignment.t list -> Rational.t
(** Shannon expansion enhanced with {e independence partitioning} (the
    d-tree/ws-tree trick of the MayBMS lineage): when the clause set splits
    into components sharing no variables, their weights combine as
    [1 − Π(1 − pᵢ)] instead of branching — often exponentially faster on
    sparse DNFs, still exact. *)

val tuple_confidence :
  Wtable.t -> Urelation.t -> Pqdb_relational.Tuple.t -> Rational.t
(** Confidence of one possible tuple of a U-relation. *)

val all_confidences :
  Wtable.t -> Urelation.t ->
  (Pqdb_relational.Tuple.t * Rational.t) list
(** [conf(R)] as data: each possible tuple with its exact confidence. *)
