open Pqdb_numeric
module Faultpoint = Pqdb_runtime.Faultpoint
module Pqdb_error = Pqdb_runtime.Pqdb_error

type stats = {
  trials_used : int array;
  exact_fraction : float;
  intervals : (float * float) array;
  achieved_eps : float array;
  complete : bool;
}

(* Cap on what the adaptive sampler can spend on a tuple — used only to
   order the farmed work longest-first so stragglers start early. *)
let cost_bound comp ~eps ~delta =
  Array.fold_left
    (fun acc dnf -> acc + Karp_luby.trials_for dnf ~eps ~delta)
    0 (Compile.residuals comp)

let exact_fraction_of ~out ~masses =
  let total_value = Array.fold_left ( +. ) 0. out in
  let sampled_mass = Array.fold_left ( +. ) 0. masses in
  if total_value <= 0. then 1.
  else Float.max 0. (1. -. (sampled_mass /. total_value))

(* --- streaming / checkpointed execution --------------------------------- *)

type stream_options = {
  shard_cost : int;
  retries : int;
  checkpoint : string option;
  resume : bool;
}

let default_stream_options =
  { shard_cost = 1_000_000; retries = 2; checkpoint = None; resume = false }

type stream_summary = {
  shards : int;
  resumed_shards : int;
  quarantined : (int * Pqdb_error.t) list;
  stream_trials : int;
  stream_complete : bool;
  journal_ok : bool;
}

let sum_trials a = Array.fold_left ( + ) 0 a

(* Sound per-tuple outcome for a shard whose computation cannot be trusted
   (kept failing, or failed on enough distinct workers): a-priori compiled
   brackets, zero trials, and the failure typed.  Shared by the in-process
   quarantine path and the distributed coordinator. *)
let apriori_outcome ?compile_fuel w clause_sets (sh : Shard.t) ~fp ~error =
  let count = sh.count in
  let estimates = Array.make count 0. in
  let intervals = Array.make count (0., 1.) in
  let achieved = Array.make count 0.5 in
  for j = 0 to count - 1 do
    match Compile.compile ?fuel:compile_fuel w clause_sets.(sh.first + j) with
    | comp -> (
        match Compile.exact_value comp with
        | Some p ->
            estimates.(j) <- p;
            intervals.(j) <- (p, p);
            achieved.(j) <- 0.
        | None ->
            let lo, hi = Compile.vacuous_interval comp in
            estimates.(j) <- lo;
            intervals.(j) <- (lo, hi);
            achieved.(j) <- (hi -. lo) /. 2.)
    | exception _ -> () (* keep the vacuous [0, 1] default *)
  done;
  let err =
    match error with
    | Pqdb_error.Error t -> t
    | e -> Pqdb_error.Task_failure { index = sh.index; inner = e }
  in
  {
    Shard.shard = sh;
    fp;
    estimates;
    intervals;
    trials = Array.make count 0;
    achieved;
    masses = Array.make count 0.;
    complete = false;
    resumed = false;
    quarantined = Some err;
  }

(* One attempt at one shard over the whole-batch lanes — the unit of work a
   stream iteration, a retry, or a remote worker executes.  Tuple [j]
   consumes only a fresh copy of its own lane, so every attempt (on any
   process) replays exactly the stream a fault-free first attempt would have
   consumed, and the outcome is bit-identical no matter where, in what
   order, or under which shard geometry tuples run.  Fires the "shard.run"
   fault point; failures propagate for the caller's retry/quarantine
   policy. *)
let solve_shard ?budget ?nworkers ?compile_fuel ~lanes w clause_sets
    (sh : Shard.t) ~fp ~eps ~delta =
  Faultpoint.fire "shard.run";
  let nworkers =
    match nworkers with Some n -> n | None -> Pool.default_workers ()
  in
  if nworkers <= 0 then
    invalid_arg "Confidence.solve_shard: nworkers must be positive";
  let n = sh.count in
  (* Compiling prepares every residual DNF's sampling tables and forces the
     shared per-variable alias cache in the W table, so the pooled solve
     phase below is read-only on all shared structures. *)
  let comps =
    Array.init n (fun j ->
        Compile.compile ?fuel:compile_fuel w clause_sets.(sh.first + j))
  in
  let estimates = Array.make n 0. in
  let trials = Array.make n 0 in
  let masses = Array.make n 0. in
  let intervals = Array.make n (0., 0.) in
  let achieved = Array.make n 0. in
  (* Flipped (from any domain) the moment a tuple misses its (ε, δ)
     contract or a task/pool failure is contained. *)
  let all_complete = Atomic.make true in
  (* Tuples the compiler resolved in closed form cost nothing — fill them
     here and farm only the ones with residual sampling work, longest
     worst-case budget first.  Live tuples are pre-filled with their
     a-priori compiled bracket so that a tuple whose task never runs (or
     dies) still reports a sound interval instead of garbage; its
     achieved_eps is the bracket's absolute half-width — the certificate
     actually held — never the requested ε. *)
  let live = ref [] in
  Array.iteri
    (fun j comp ->
      match Compile.exact_value comp with
      | Some p ->
          estimates.(j) <- p;
          intervals.(j) <- (p, p)
      | None ->
          let lo, hi = Compile.vacuous_interval comp in
          estimates.(j) <- lo;
          intervals.(j) <- (lo, hi);
          achieved.(j) <- (hi -. lo) /. 2.;
          live := j :: !live)
    comps;
  let live =
    Array.of_list
      (List.stable_sort
         (fun i j ->
           compare (cost_bound comps.(j) ~eps ~delta)
             (cost_bound comps.(i) ~eps ~delta))
         (List.rev !live))
  in
  let ntasks = Array.length live in
  if ntasks > 0 then begin
    let task k =
      let j = live.(k) in
      let lane = Rng.copy lanes.(sh.first + j) in
      match Compile.solve ?budget lane comps.(j) ~eps ~delta with
      | o ->
          estimates.(j) <- o.Compile.value;
          trials.(j) <- o.Compile.trials;
          masses.(j) <- o.Compile.residual_mass;
          intervals.(j) <- (o.Compile.lo, o.Compile.hi);
          achieved.(j) <- o.Compile.achieved_eps;
          if not o.Compile.complete then Atomic.set all_complete false
      | exception _ ->
          (* Keep the pre-filled bracket; the shard must survive any single
             tuple. *)
          Atomic.set all_complete false
    in
    (* A pool-level failure (a task the pool itself could not run, a spawn
       problem surfacing late) degrades the whole shard to its pre-filled
       brackets rather than crashing it. *)
    match Pool.run (Pool.create (min nworkers ntasks)) ~ntasks task with
    | () -> ()
    | exception _ -> Atomic.set all_complete false
  end;
  {
    Shard.shard = sh;
    fp;
    estimates;
    intervals;
    trials;
    achieved;
    masses;
    complete = Atomic.get all_complete;
    resumed = false;
    quarantined = None;
  }

let run_stream ?budget ?nworkers ?compile_fuel
    ?(options = default_stream_options) rng w clause_sets ~eps ~delta ~emit =
  if eps <= 0. || delta <= 0. then invalid_arg "Confidence.run_stream";
  if options.shard_cost < 1 then
    invalid_arg "Confidence.run_stream: shard_cost must be >= 1";
  if options.retries < 0 then
    invalid_arg "Confidence.run_stream: retries must be >= 0";
  if options.resume && options.checkpoint = None then
    invalid_arg "Confidence.run_stream: resume requires a checkpoint journal";
  let n = Array.length clause_sets in
  let shards = Shard.plan ~eps ~delta ~max_cost:options.shard_cost clause_sets in
  (* Per-tuple lanes are split over the WHOLE batch up front; shards consume
     their tuples' lanes only, which makes the stream bit-identical across
     shard geometries — and to any interrupted-and-resumed replay of
     itself. *)
  let lanes = if n = 0 then [||] else Rng.split_n rng n in
  let meta =
    Shard.meta_payload ~n ~eps ~delta ~fuel:compile_fuel
      ~shard_cost:options.shard_cost
  in
  let journal, resumed =
    match options.checkpoint with
    | None -> (Shard.null_journal (), Hashtbl.create 1)
    | Some path ->
        Shard.open_journal ~retries:options.retries ~resume:options.resume
          ~meta ~plan:shards ~clause_sets path
  in
  let total_cost = Array.fold_left (fun a s -> a + s.Shard.cost) 0 shards in
  let remaining_cost = ref total_cost in
  let stream_trials = ref 0 in
  let quarantined = ref [] in
  let resumed_count = ref 0 in
  let all_complete = ref true in
  let run_shard (sh : Shard.t) =
    let fp = Shard.fingerprint clause_sets sh in
    let attempt_once () =
      let sub_budget, charge_parent =
        match budget with
        | None -> (None, fun _ -> ())
        | Some b ->
            if Budget.limitless b then (Some b, fun _ -> ())
            else
              (* Budget-aware scheduling: this shard's proportional share of
                 what is left, by a-priori cost — the tail degrades evenly
                 instead of starving, and the closing shard takes the whole
                 remainder so no allowance is lost to rounding. *)
              ( Some
                  (Budget.split b ~cost:sh.cost
                     ~remaining_cost:(max 1 !remaining_cost)),
                fun used -> Budget.spend b used )
      in
      let o =
        solve_shard ?budget:sub_budget ?nworkers ?compile_fuel ~lanes w
          clause_sets sh ~fp ~eps ~delta
      in
      charge_parent (sum_trials o.Shard.trials);
      o
    in
    let rec go attempt =
      match attempt_once () with
      | o -> o
      | exception e ->
          if attempt >= options.retries then
            apriori_outcome ?compile_fuel w clause_sets sh ~fp ~error:e
          else begin
            Unix.sleepf (Shard.backoff_s ~attempt:(attempt + 1));
            go (attempt + 1)
          end
    in
    go 0
  in
  Array.iter
    (fun (sh : Shard.t) ->
      let outcome =
        match Hashtbl.find_opt resumed sh.index with
        | Some o ->
            incr resumed_count;
            (* Charge the governor with the journaled spend so later shards
               see the same remaining allowance as in the uninterrupted
               run. *)
            (match budget with
            | Some b -> Budget.spend b (sum_trials o.Shard.trials)
            | None -> ());
            o
        | None -> run_shard sh
      in
      remaining_cost := !remaining_cost - sh.cost;
      stream_trials := !stream_trials + sum_trials outcome.Shard.trials;
      if not outcome.Shard.complete then all_complete := false;
      (match outcome.Shard.quarantined with
      | Some err -> quarantined := (sh.index, err) :: !quarantined
      | None ->
          if not outcome.Shard.resumed then
            Shard.journal_append journal (Shard.to_payload outcome));
      emit outcome)
    shards;
  Shard.close_journal journal;
  {
    shards = Array.length shards;
    resumed_shards = !resumed_count;
    quarantined = List.rev !quarantined;
    stream_trials = !stream_trials;
    stream_complete = !all_complete && !quarantined = [];
    journal_ok = Shard.journal_ok journal;
  }

let run ?budget ?nworkers ?compile_fuel ?options rng w clause_sets ~eps ~delta =
  let n = Array.length clause_sets in
  let out = Array.make n 0. in
  let trials_used = Array.make n 0 in
  let masses = Array.make n 0. in
  let intervals = Array.make n (0., 0.) in
  let achieved = Array.make n 0. in
  let summary =
    run_stream ?budget ?nworkers ?compile_fuel ?options rng w clause_sets ~eps
      ~delta ~emit:(fun (o : Shard.outcome) ->
        let f = o.shard.Shard.first and c = o.shard.Shard.count in
        Array.blit o.estimates 0 out f c;
        Array.blit o.trials 0 trials_used f c;
        Array.blit o.masses 0 masses f c;
        Array.blit o.intervals 0 intervals f c;
        Array.blit o.achieved 0 achieved f c)
  in
  ( out,
    {
      trials_used;
      exact_fraction = exact_fraction_of ~out ~masses;
      intervals;
      achieved_eps = achieved;
      complete = summary.stream_complete;
    },
    summary )
