(** Structural normalization of lineage DNFs, in the spirit of Koch &
    Olteanu's ws-tree decompositions: cheap, always-sound rewrites.  It
    canonicalizes {!Memo} keys and conditioning's violation DNF, and gives
    the compiler's fallback DNF; {!Compile} applies the same rewrite at every
    node of its own clause form.

    A DNF here is a list of {!Pqdb_urel.Assignment} clauses over the
    independent W-table variables; its probability is the weight of the union
    of the clauses' world sets. *)

open Pqdb_urel

val normalize : Assignment.t list -> Assignment.t list
(** Deduplicate (structural equality), collapse to [[Assignment.empty]] when
    some clause is empty (trivially true), and drop subsumed clauses: [b] is
    redundant when some other clause [a] has [Assignment.subsumes a b].
    Subsumption is skipped above {!subsumption_cap} clauses (quadratic
    pass); the result is then still equivalent, just possibly redundant. *)

val subsumption_cap : int
(** 512: the largest clause count {!normalize} (and the compiler's local
    normalization, which must agree with it) runs subsumption on. *)
