open Pqdb_urel

type node =
  | Const of float
  | Res of int
  | Sum of (float * node) array
  | IndepOr of node array

type t = {
  root : node;
  residuals : Dnf.t array;
  res_weights : float array;  (* per residual: Σ path weights, ∂P/∂p̂ᵢ ≤ wᵢ *)
  fallback : Dnf.t option;
      (* the whole normalized DNF, prepared, when residuals exist: [solve]
         reverts to it when the residual budgets are worse than sampling the
         original problem (Shannon truncation can duplicate clauses across
         leaves, inflating Σ|Fᵢ| past |F|). *)
}

let default_fuel = 4096

let compile ?(fuel = default_fuel) w clauses =
  let residuals = ref [] in
  let nres = ref 0 in
  let fuel = ref fuel in
  let residual cs =
    let i = !nres in
    incr nres;
    residuals := Dnf.prepare w cs :: !residuals;
    Res i
  in
  let normalized = Lineage.normalize clauses in
  let rec go clauses =
    match Lineage.normalize clauses with
    | [] -> Const 0.
    | [ c ] -> Const (Assignment.weight_float w c)
    | cs when !fuel <= 0 -> residual cs
    | cs -> (
        match Lineage.components cs with
        | _ :: _ :: _ as comps ->
            IndepOr (Array.of_list (List.map go comps))
        | _ -> (
            match Lineage.universal_var cs with
            | Some v ->
                (* Disjoint-OR: the branches v = x are mutually exclusive
                   and every clause shrinks, so expansion is free (no
                   Shannon fuel) and terminates on binding count alone. *)
                expand v cs
            | None -> (
                match Lineage.most_shared_var cs with
                | None -> assert false (* nonempty clauses have variables *)
                | Some v ->
                    fuel := !fuel - Wtable.domain_size w v - List.length cs;
                    expand v cs)))
  and expand v cs =
    let n = Wtable.domain_size w v in
    Sum
      (Array.init n (fun x ->
           (Wtable.prob_float w v x, go (Lineage.condition cs v x))))
  in
  let root = go normalized in
  let residuals = Array.of_list (List.rev !residuals) in
  let res_weights = Array.make (Array.length residuals) 0. in
  let rec walk pw = function
    | Const _ -> ()
    | Res i -> res_weights.(i) <- res_weights.(i) +. pw
    | Sum branches -> Array.iter (fun (wx, c) -> walk (pw *. wx) c) branches
    | IndepOr children -> Array.iter (walk pw) children
  in
  walk 1. root;
  let fallback =
    if Array.length residuals = 0 then None
    else if Array.length residuals = 1 && res_weights.(0) = 1. then
      (* The tree IS one residual (e.g. fuel 0): no separate fallback. *)
      None
    else Some (Dnf.prepare w normalized)
  in
  { root; residuals; res_weights; fallback }

let residuals t = t.residuals
let residual_count t = Array.length t.residuals
let residual_weights t = Array.copy t.res_weights
let is_exact t = residual_count t = 0

let rec eval_node vals = function
  | Const p -> p
  | Res i -> vals.(i)
  | Sum branches ->
      Array.fold_left
        (fun acc (w, c) -> acc +. (w *. eval_node vals c))
        0. branches
  | IndepOr children ->
      1.
      -. Array.fold_left
           (fun acc c -> acc *. (1. -. eval_node vals c))
           1. children

let value t vals =
  if Array.length vals <> Array.length t.residuals then
    invalid_arg "Compile.value: one estimate per residual expected";
  eval_node vals t.root

let exact_value t = if is_exact t then Some (eval_node [||] t.root) else None

(* Count nodes for diagnostics/tests. *)
let size t =
  let rec go = function
    | Const _ | Res _ -> 1
    | Sum bs -> Array.fold_left (fun acc (_, c) -> acc + go c) 1 bs
    | IndepOr cs -> Array.fold_left (fun acc c -> acc + go c) 1 cs
  in
  go t.root

type outcome = {
  value : float;
  trials : int;
  residual_mass : float;
  lo : float;
  hi : float;
  achieved_eps : float;
  complete : bool;
}

(* Worst-case estimator calls to answer [dnf] at relative [eps], failure
   [delta] — the fixed Chernoff budget the adaptive sampler is capped at. *)
let cost_cap dnf ~eps ~delta =
  if Dnf.clause_count dnf = 1 then 0 else Karp_luby.trials_for dnf ~eps ~delta

let residual_ub dnf = Float.min 1. (Dnf.total_weight dnf)

let vacuous_interval t =
  if is_exact t then
    let v = eval_node [||] t.root in
    (v, v)
  else
    (* The monotone tree at the residual extremes: the lower endpoint is the
       exact compiled mass — what the tuple is worth with every residual
       written off — and the upper endpoint charges each residual its full
       a-priori mass min(1, Mᵢ). *)
    let zeros = Array.map (fun _ -> 0.) t.residuals in
    let ubs = Array.map residual_ub t.residuals in
    ( Float.max 0. (eval_node zeros t.root),
      Float.min 1. (eval_node ubs t.root) )

(* A residual whose sampling raised (injected or real): only its a-priori
   interval [0, min(1, M)] is sound. *)
let vacuous_partial dnf =
  { Karp_luby.p_estimate = 0.; p_lo = 0.; p_hi = residual_ub dnf; p_trials = 0;
    p_eps = Float.infinity; p_complete = false }

(* Assemble the tuple outcome from per-residual results.  The interval
   always holds with probability ≥ 1 − δ: the monotone tree maps sound
   per-residual intervals to a sound root interval, and on a complete pass
   the relative-ε claim [v/(1+ε), v/(1−ε)] is intersected in.  The value is
   projected into the interval, so [0 ≤ lo ≤ value ≤ hi ≤ 1] always. *)
let assemble t (ps : Karp_luby.partial array) ~eps =
  let tree f = eval_node (Array.map f ps) t.root in
  let v = tree (fun p -> p.Karp_luby.p_estimate) in
  let lo = Float.max 0. (tree (fun p -> p.Karp_luby.p_lo))
  and hi = Float.min 1. (tree (fun p -> p.Karp_luby.p_hi)) in
  let complete = Array.for_all (fun p -> p.Karp_luby.p_complete) ps in
  let lo, hi =
    if complete then
      ( Float.max lo (v /. (1. +. eps)),
        if eps >= 1. then hi else Float.min hi (v /. (1. -. eps)) )
    else (lo, hi)
  in
  let hi = Float.max lo hi in
  let value = Float.min hi (Float.max lo v) in
  let mass = ref 0. and trials = ref 0 in
  Array.iteri
    (fun i p ->
      mass := !mass +. (t.res_weights.(i) *. p.Karp_luby.p_estimate);
      trials := !trials + p.Karp_luby.p_trials)
    ps;
  let achieved_eps =
    if complete then eps
    else Array.fold_left (fun acc p -> Float.max acc p.Karp_luby.p_eps) 0. ps
  in
  { value;
    trials = !trials;
    residual_mass = Float.min value !mass;
    lo;
    hi;
    achieved_eps;
    complete }

let exact_outcome v =
  { value = v; trials = 0; residual_mass = 0.; lo = v; hi = v;
    achieved_eps = 0.; complete = true }

(* The truncation-guard path samples the whole normalized DNF instead of the
   residual leaves; the compiled tree still brackets the answer, and the
   estimate is projected into the intersected bracket. *)
let fallback_outcome t (p : Karp_luby.partial) =
  let tree_lo, tree_hi = vacuous_interval t in
  let lo = Float.max tree_lo p.p_lo in
  let hi = Float.max lo (Float.min tree_hi p.p_hi) in
  let value = Float.min hi (Float.max lo p.p_estimate) in
  { value;
    trials = p.p_trials;
    residual_mass = value;
    lo;
    hi;
    achieved_eps = p.p_eps;
    complete = p.p_complete }

let solve ?budget rng t ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Compile.solve";
  let r = Array.length t.residuals in
  if r = 0 then exact_outcome (eval_node [||] t.root)
  else begin
    (* One adaptive pass per residual at (ε, δ/r): the error propagation
       lemma and the union bound give the root (ε, δ). *)
    let d = delta /. float_of_int r in
    (* Truncation guard: Shannon cut-off can leave residual leaves whose
       combined worst-case budget exceeds just sampling the original DNF
       (clauses get duplicated across branches).  Compare the caps and take
       whichever problem is cheaper — compilation must pay for itself. *)
    let compiled_cap =
      Array.fold_left
        (fun acc dnf -> acc + cost_cap dnf ~eps ~delta:d)
        0 t.residuals
    in
    let plain_cap =
      match t.fallback with
      | Some dnf -> cost_cap dnf ~eps ~delta
      | None -> max_int
    in
    if plain_cap < compiled_cap then begin
      let dnf = Option.get t.fallback in
      match Karp_luby.adaptive_partial ?budget rng dnf ~eps ~delta with
      | partial -> fallback_outcome t partial
      | exception _ ->
          (* Sampling the fallback died outright: all that remains sound is
             the compiled bracket. *)
          let lo, hi = vacuous_interval t in
          { value = lo; trials = 0; residual_mass = 0.; lo; hi;
            achieved_eps = (hi -. lo) /. 2.; complete = false }
    end
    else
      (* Every residual charges the optional shared governor; residuals past
         it come back with whatever interval their trials certify, and an
         estimator failure is contained to its residual. *)
      assemble t ~eps
        (Array.map
           (fun dnf ->
             match Karp_luby.adaptive_partial ?budget rng dnf ~eps ~delta:d with
             | p -> p
             | exception _ -> vacuous_partial dnf)
           t.residuals)
  end
