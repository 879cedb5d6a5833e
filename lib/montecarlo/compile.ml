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

(* The kernel works on clauses local to one compile.  The DNF's variables
   are renumbered 0..k-1 in increasing W-table id, and a clause is a sorted
   [int array] of binding codes [(local lsl value_bits) lor value].  Codes
   compare like (variable, value) pairs, so [compare_clause] orders clauses
   exactly as [Assignment.compare] orders the originals (length first, then
   lexicographically): normalization, component order, pivots and residual
   clause order are those of the same rewrites on [Assignment.t] lists. *)
let value_bits = 31
let value_mask = (1 lsl value_bits) - 1
let var_of b = b lsr value_bits
let value_of b = b land value_mask

let compare_clause (a : int array) (b : int array) =
  let la = Array.length a in
  let c = Int.compare la (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* Every binding of [a] is a binding of [b]: a merge over sorted codes. *)
let subsumes (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if lb - j < la - i then false
    else
      let x = a.(i) and y = b.(j) in
      if x = y then go (i + 1) (j + 1) else x > y && go i (j + 1)
  in
  la <= lb && go 0 0

(* [Lineage.normalize] on the local form, in place on a fresh array: sort,
   deduplicate, collapse on the empty clause, drop subsumed clauses up to
   the cap.  Sorted by length and duplicate-free, a clause can only be
   subsumed by a shorter, earlier one, and by transitivity checking the
   clauses kept so far finds the same minimal set the all-pairs pass does. *)
let normalize (cs : int array array) =
  Array.stable_sort compare_clause cs;
  let n = Array.length cs in
  if n = 0 then cs
  else if Array.length cs.(0) = 0 then [| [||] |]
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if compare_clause cs.(i) cs.(!m - 1) <> 0 then begin
        cs.(!m) <- cs.(i);
        incr m
      end
    done;
    if !m > 1 && !m <= Lineage.subsumption_cap then begin
      let kept = ref 0 in
      for j = 0 to !m - 1 do
        let c = cs.(j) in
        let i = ref 0 in
        while !i < !kept && not (subsumes cs.(!i) c) do
          incr i
        done;
        if !i = !kept then begin
          cs.(!kept) <- c;
          incr kept
        end
      done;
      m := !kept
    end;
    if !m = n then cs else Array.sub cs 0 !m
  end

(* Index of [v]'s binding in [c], or -1. *)
let find_var (c : int array) v =
  let rec go i =
    if i = Array.length c then -1
    else
      let u = var_of c.(i) in
      if u = v then i else if u > v then -1 else go (i + 1)
  in
  go 0

let is_const = function Const _ -> true | Res _ | Sum _ | IndepOr _ -> false

(* A node whose children are all constants is one constant, computed by the
   very fold [eval_node] would run on it later: every float keeps its
   bits. *)
let fold node =
  let folds =
    match node with
    | Sum branches -> Array.for_all (fun (_, c) -> is_const c) branches
    | IndepOr children -> Array.for_all is_const children
    | Const _ | Res _ -> false
  in
  if folds then Const (eval_node [||] node) else node

let compile ?(fuel = default_fuel) w clauses =
  (* Local id -> W-table variable: the DNF's variables in increasing id. *)
  let globals =
    Array.of_list
      (List.sort_uniq Int.compare (List.concat_map Assignment.vars clauses))
  in
  let local v =
    let rec search lo hi =
      let mid = (lo + hi) / 2 in
      let u = globals.(mid) in
      if u = v then mid
      else if u < v then search (mid + 1) hi
      else search lo mid
    in
    search 0 (Array.length globals)
  in
  let encode a =
    Array.of_list
      (List.map
         (fun (v, x) ->
           if x < 0 || x > value_mask then
             invalid_arg
               "Compile.compile: binding value does not fit the clause code";
           (local v lsl value_bits) lor x)
         (Assignment.bindings a))
  in
  let decode c =
    Assignment.of_list
      (Array.fold_right
         (fun b acc -> (globals.(var_of b), value_of b) :: acc)
         c [])
  in
  let weight c =
    Array.fold_left
      (fun acc b -> acc *. Wtable.prob_float w globals.(var_of b) (value_of b))
      1. c
  in
  (* Scratch for the per-node pass, indexed by local variable and restored
     to -1 / 0 before any recursion. *)
  let k = Array.length globals in
  let owner = Array.make k (-1) and count = Array.make k 0 in
  let seen = Array.make k 0 in
  let residuals = ref [] in
  let nres = ref 0 in
  let fuel = ref fuel in
  let residual cs =
    let i = !nres in
    incr nres;
    residuals :=
      Dnf.prepare w (Array.to_list (Array.map decode cs)) :: !residuals;
    Res i
  in
  (* [normalized]: [cs] is already the output of [normalize]. *)
  let rec go normalized cs =
    let cs = if normalized then cs else normalize cs in
    let n = Array.length cs in
    if n = 0 then Const 0.
    else if n = 1 then Const (weight cs.(0))
    else if !fuel <= 0 then residual cs
    else begin
      (* One pass: union-find clauses sharing a variable, and count the
         clauses each variable occurs in. *)
      let parent = Array.init n Fun.id in
      let rec find i =
        let p = parent.(i) in
        if p = i then i
        else
          let r = find p in
          parent.(i) <- r;
          r
      in
      let unions = ref 0 and nseen = ref 0 in
      for i = 0 to n - 1 do
        Array.iter
          (fun b ->
            let v = var_of b in
            let o = owner.(v) in
            if o < 0 then begin
              owner.(v) <- i;
              seen.(!nseen) <- v;
              incr nseen
            end
            else begin
              let ri = find i and ro = find o in
              if ri <> ro then begin
                parent.(ri) <- ro;
                incr unions
              end
            end;
            count.(v) <- count.(v) + 1)
          cs.(i)
      done;
      (* The pivot: most clauses, smallest variable on ties.  Bound in all
         [n] clauses it is the universal variable. *)
      let best = ref (-1) and best_count = ref 0 in
      for s = 0 to !nseen - 1 do
        let v = seen.(s) in
        let c = count.(v) in
        if c > !best_count || (c = !best_count && v < !best) then begin
          best := v;
          best_count := c
        end;
        owner.(v) <- -1;
        count.(v) <- 0
      done;
      if !unions < n - 1 then components cs find (n - !unions)
      else begin
        (* A pivot bound in every clause is a disjoint-OR: the branches are
           mutually exclusive and every clause shrinks, so expansion is free
           (no Shannon fuel) and terminates on binding count alone.  Any
           other pivot is a Shannon step. *)
        if !best_count < n then
          fuel := !fuel - Wtable.domain_size w globals.(!best) - n;
        expand !best cs
      end
    end
  (* Variable-connected components, in first-occurrence order with clause
     order kept: sublists of a fully normalized set are normalized. *)
  and components cs find ncomp =
    let n = Array.length cs in
    let slot = Array.make n (-1) and sizes = Array.make ncomp 0 in
    let next = ref 0 in
    for i = 0 to n - 1 do
      let r = find i in
      if slot.(r) < 0 then begin
        slot.(r) <- !next;
        incr next
      end;
      sizes.(slot.(r)) <- sizes.(slot.(r)) + 1
    done;
    let comps = Array.map (fun s -> Array.make s [||]) sizes in
    let fill = Array.make ncomp 0 in
    for i = 0 to n - 1 do
      let g = slot.(find i) in
      comps.(g).(fill.(g)) <- cs.(i);
      fill.(g) <- fill.(g) + 1
    done;
    let normalized = n <= Lineage.subsumption_cap in
    fold (IndepOr (Array.map (go normalized) comps))
  and expand v cs =
    let g = globals.(v) in
    let pos = Array.map (fun c -> find_var c v) cs in
    let branch x =
      let sub = Array.make (Array.length cs) [||] and m = ref 0 in
      Array.iteri
        (fun i c ->
          let p = pos.(i) in
          if p < 0 || value_of c.(p) = x then begin
            sub.(!m) <-
              (if p < 0 then c
               else
                 Array.init (Array.length c - 1) (fun j ->
                     c.(if j < p then j else j + 1)));
            incr m
          end)
        cs;
      (Wtable.prob_float w g x, go false (Array.sub sub 0 !m))
    in
    fold (Sum (Array.init (Wtable.domain_size w g) branch))
  in
  let root = go false (Array.of_list (List.map encode clauses)) in
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
    else Some (Dnf.prepare w (Lineage.normalize clauses))
  in
  { root; residuals; res_weights; fallback }

let residuals t = t.residuals
let residual_count t = Array.length t.residuals
let residual_weights t = Array.copy t.res_weights
let is_exact t = residual_count t = 0

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
