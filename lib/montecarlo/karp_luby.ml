open Pqdb_numeric

let run rng dnf ~trials =
  if Dnf.is_trivially_false dnf then 0.
  else if Dnf.is_trivially_true dnf then 1.
  else begin
    if trials <= 0 then invalid_arg "Karp_luby.run: trials must be positive";
    let x = ref 0 in
    for _ = 1 to trials do
      x := !x + Dnf.sample_estimator rng dnf
    done;
    float_of_int !x *. Dnf.total_weight dnf /. float_of_int trials
  end

let run_parallel ?nworkers rng dnf ~trials =
  let nworkers =
    match nworkers with Some n -> n | None -> Pool.default_workers ()
  in
  if nworkers <= 0 then
    invalid_arg "Karp_luby.run_parallel: nworkers must be positive";
  if Dnf.is_trivially_false dnf then 0.
  else if Dnf.is_trivially_true dnf then 1.
  else begin
    if trials <= 0 then
      invalid_arg "Karp_luby.run_parallel: trials must be positive";
    (* Shard the trial budget over deterministic child streams.  Shard count,
       shard sizes and shard RNGs depend only on (rng state, nworkers,
       trials), and the per-shard success counts are summed as integers, so
       the estimate is bit-identical across runs and across schedulings. *)
    let nshards = min nworkers trials in
    let rngs = Rng.split_n rng nshards in
    let base = trials / nshards and extra = trials mod nshards in
    let successes = Array.make nshards 0 in
    Pool.run (Pool.create nshards) ~ntasks:nshards (fun i ->
        let m = base + if i < extra then 1 else 0 in
        let rng = rngs.(i) in
        let x = ref 0 in
        for _ = 1 to m do
          x := !x + Dnf.sample_estimator rng dnf
        done;
        successes.(i) <- !x);
    let x = Array.fold_left ( + ) 0 successes in
    float_of_int x *. Dnf.total_weight dnf /. float_of_int trials
  end

let trials_for dnf ~eps ~delta =
  if Dnf.is_trivially_false dnf || Dnf.is_trivially_true dnf then 0
  else
    Stats.karp_luby_trials ~clauses:(Dnf.clause_count dnf) ~eps ~delta

let fpras rng dnf ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Karp_luby.fpras";
  if Dnf.is_trivially_false dnf then 0.
  else if Dnf.is_trivially_true dnf then 1.
  else run rng dnf ~trials:(trials_for dnf ~eps ~delta)

let fpras_parallel ?nworkers rng dnf ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Karp_luby.fpras_parallel";
  if Dnf.is_trivially_false dnf then 0.
  else if Dnf.is_trivially_true dnf then 1.
  else run_parallel ?nworkers rng dnf ~trials:(trials_for dnf ~eps ~delta)

(* ------------------------------------------------------------------ *)
(* Adaptive stopping (Dagum-Karp-Luby-Ross), partial-trial bounds     *)
(* ------------------------------------------------------------------ *)

type partial = {
  p_estimate : float;
  p_lo : float;
  p_hi : float;
  p_trials : int;
  p_eps : float;
  p_complete : bool;
}

let point p n =
  { p_estimate = p; p_lo = p; p_hi = p; p_trials = n; p_eps = 0.; p_complete = true }

(* With few trials the raw estimate (s/n)·M can overshoot its own certified
   interval (even 1); project it in — the interval holds the truth whenever
   the estimate is good, so projecting never increases the error. *)
let clamp p =
  let lo = Float.min p.p_lo p.p_hi in
  { p with
    p_lo = lo;
    p_estimate = Float.min p.p_hi (Float.max lo p.p_estimate) }

(* [p̂] after [n] trials certified at relative error [eps] with confidence
   δ — the multiplicative inversion p ∈ [p̂/(1+ε), p̂/(1−ε)], clamped to
   [0, ub]; vacuous above [ub] once [eps ≥ 1]. *)
let certified ~ub ~eps ~complete p n =
  clamp
    { p_estimate = p;
      p_lo = Float.max 0. (p /. (1. +. eps));
      p_hi = (if eps >= 1. then ub else Float.min ub (p /. (1. -. eps)));
      p_trials = n; p_eps = eps; p_complete = complete }

(* The DKLR stopping rule on the 0/1 Karp-Luby estimator: sample until the
   success count reaches Υ₁ = 1 + (1+ε)·4λ·ln(2/δ)/ε² (λ = e − 2) and
   estimate μ̂ = Υ₁/N, so the trial count adapts to the true mean μ = p/M
   instead of its worst case 1/|F|.  The loop is capped at the fixed
   Chernoff budget (whose plain mean meets (ε, δ) by construction) and polls
   the budget once per trial; with no budget the poll is never true. *)
let adaptive_partial ?budget rng dnf ~eps ~delta =
  if eps <= 0. || delta <= 0. then invalid_arg "Karp_luby.adaptive_partial";
  if Dnf.is_trivially_false dnf then point 0. 0
  else if Dnf.is_trivially_true dnf then point 1. 0
  else if Dnf.clause_count dnf = 1 then
    (* The estimator always fires: p = M exactly, no trials needed. *)
    point (Dnf.total_weight dnf) 0
  else begin
    Pqdb_runtime.Faultpoint.fire "karp_luby.estimator";
    let clauses = Dnf.clause_count dnf in
    let cap = Stats.karp_luby_trials ~clauses ~eps ~delta in
    let lambda = Float.exp 1. -. 2. in
    let ups = 4. *. lambda *. log (2. /. delta) /. (eps *. eps) in
    let ups1 = 1. +. ((1. +. eps) *. ups) in
    let target = int_of_float (Float.ceil ups1) in
    let exhausted () =
      match budget with Some b -> Budget.exhausted b | None -> false
    in
    let s = ref 0 and n = ref 0 in
    let out_of_budget = ref false in
    while (not !out_of_budget) && !s < target && !n < cap do
      if exhausted () then out_of_budget := true
      else begin
        s := !s + Dnf.sample_estimator rng dnf;
        incr n;
        Option.iter (fun b -> Budget.spend b 1) budget
      end
    done;
    let n = !n in
    let m = Dnf.total_weight dnf in
    let ub = Float.min 1. m in
    if !s >= target then
      certified ~ub ~eps ~complete:true (ups1 /. float_of_int n *. m) n
    else if not !out_of_budget then
      certified ~ub ~eps ~complete:true
        (float_of_int !s *. m /. float_of_int n)
        n
    else if n = 0 then
      (* Not one trial fit in the budget: the only sound claim is the
         a-priori interval [0, min(1, M)]. *)
      { p_estimate = 0.; p_lo = 0.; p_hi = ub; p_trials = 0;
        p_eps = Float.infinity; p_complete = false }
    else
      (* Partial trials: invert the Chernoff tail to the relative error the
         [n] trials actually certify at this δ, ε′ = √(3·|F|·ln(2/δ)/n). *)
      let p = float_of_int !s *. m /. float_of_int n in
      let eps' =
        sqrt (3. *. float_of_int clauses *. log (2. /. delta) /. float_of_int n)
      in
      if eps' >= 1. then
        (* Past the Chernoff form's range: no lower bound is certified. *)
        clamp
          { p_estimate = p; p_lo = 0.; p_hi = ub; p_trials = n;
            p_eps = eps'; p_complete = false }
      else certified ~ub ~eps:eps' ~complete:(eps' <= eps) p n
  end
