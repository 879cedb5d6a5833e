(* pqbench: the OCaml half of the pqdb benchmark.  run.py drives the real
   [pqdb] executable and calls this helper for what needs the library:

   - [gen]: seeded inputs for one workload ([.udbb] via Udb_binary.save,
     plus the query list for query-mix);
   - [refs-serve], [check-compile], [check-query]: the rational oracles the
     answer checks compare against;
   - [serve-load]: the closed-loop serve-mix client (2 threads, 2
     Pqdb_serve.Client connections);
   - [trace]: the traced run, which replays a workload's operations by
     calling each layer's public functions in pipeline order and records a
     span around every call.

   Nothing here is linked into pqdb itself; spans live only in this file. *)

open Pqdb_numeric
open Pqdb_relational
open Pqdb_urel
module Q = Rational
module M = Pqdb_montecarlo
module Cond = Pqdb_conditioning.Condition
module Cset = Pqdb_conditioning.Constraint_set
module Server = Pqdb_serve.Server
module Client = Pqdb_serve.Client

let now = Unix.gettimeofday
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pqbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Workload sizes.  Each is stated against the two program constants it  *)
(* is meant to sit on one side of: Memo.default_entries (256 compiled    *)
(* trees) and Compile.default_fuel (4096 Shannon steps).                 *)
(* ------------------------------------------------------------------ *)

(* batch-compile: 20000 tuples, every 20th a 20-var/20-clause DNF.  These
   DNFs need real Shannon work but finish inside the default fuel, so every
   answer is exact and sampling does nothing (0 trials); the singletons
   make the batch long enough to show per-tuple overheads (plan, journal,
   emit). *)
let bc_tuples = 20_000
let bc_every = 20
let bc_vars = 20
let bc_clauses = 20

(* batch-sample: 4000 tuples, every 100th a 40-var/40-clause DNF.  These
   exhaust the default fuel and leave residuals, so Karp-Luby/DKLR sampling
   at eps 0.1 / delta 0.05 does most of the work. *)
let bs_tuples = 4_000
let bs_every = 100
let bs_vars = 40
let bs_clauses = 40
let bs_eps = 0.1
let bs_delta = 0.05

(* serve-mix: [hot] holds 3/4 of the cache's 256 entries of distinct
   lineage, [cold] four times the cache, so a cyclic scan of [cold] thrashes
   the LRU; each tuple is an 8-var/8-clause DNF that compiles exactly (a
   cache miss costs a real compile, a hit skips it).  [people_rels] are
   the duplicate-heavy dedup fixtures the conditioned sessions clean, each
   24 entities of up to 3 candidates, the scale of the conditioning bench
   (E18, 46 tuples).  The cleaner cycles through eight of them: the cost
   of a conditioned request grows steeply with its fixture's size (41 to 56
   tuples across seeds took 17 to 40 ms), and a conditioned request holds
   the engine lock the reader waits for, so with few fixtures per seed the
   seed, not the program, would decide a run's figures. *)
let sm_hot = 192
let sm_cold = 1024
let sm_vars = 8
let sm_clauses = 8
let sm_entities = 24
let sm_max_dups = 3
let people_rels =
  Array.init 8 (fun k -> if k = 0 then "people" else Printf.sprintf "people%d" k)

(* query-mix: small enough that the exact oracle (Eval_exact.confidences)
   answers every query, large enough that the approximate path samples.
   With 60 Dirty customers every city holds nearly all 8 first names, so
   the size of a cleaning query's answer barely depends on the seed. *)
let qm_s_rows = 120
let qm_groups = 8
let qm_customers = 60

(* The serve requests' parameters; run.py passes the same to the `pqdb
   batch` reference, so a conf reply is byte-comparable with its output. *)
let serve_eps = 0.05
let serve_delta = 0.01
let serve_seed = 42
let serve_q = Printf.sprintf "eps=%g delta=%g seed=%d" serve_eps serve_delta serve_seed
let hot_deadline = 0.02
let cold_deadline = 0.1
let fd_constraint rel = Printf.sprintf "fd[id -> name](%s)" rel

(* Compiled and conditioned answers are checked against the exact rational
   with this relative tolerance in the timed run (float rounding of a few
   compiled sums and one ratio stays far below it); the traced run also
   counts conditioned answers off by more than [strict_tol] (a few hundred
   ulps).  A conditioned answer off by more than [oracle_tol] but within
   [rounding_bound] shows the known float-precision defect; one off by
   more is wrong. *)
let oracle_tol = 1e-9
let strict_tol = 1e-13

(* How far float rounding can carry the program's exact conditioned path
   (Theorem 4.4) from the rational [v] = Pr(φ | c).  Each of its four
   compiled probabilities is a sum of products along Shannon paths of at
   most one step per variable, a few roundings per step, so each is off by
   at most 4·vars·u absolute (u = 2^-53).  The numerator and the
   denominator are differences of two of them, and dividing by
   Pr(c) = Pr(E) − Pr(E∧V) scales their errors by 1/Pr(c):
   |v̂ − v| ≤ 8·vars·u·(1 + v) / Pr(c).  This is why the error grows as
   Pr(c) shrinks. *)
let rounding_bound ~vars ~pr_c v =
  8. *. float vars *. (epsilon_float /. 2.) *. (1. +. v) /. pr_c

(* ------------------------------------------------------------------ *)
(* Generators                                                            *)
(* ------------------------------------------------------------------ *)

let int_tuple i = Tuple.of_list [ Value.Int i ]

let tenths_var rng w =
  let num = 1 + Rng.int rng 9 in
  Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ]

let lineage_relation rng w ~tuples ~every ~vars ~clauses =
  Urelation.make (Schema.of_list [ "id" ])
    (List.concat
       (List.init tuples (fun i ->
            let t = int_tuple i in
            if i mod every = every - 1 then
              List.map
                (fun a -> (a, t))
                (Pqdb_workload.Gen.random_dnf rng w ~vars ~clauses
                   ~clause_len:3)
            else [ (Assignment.singleton (tenths_var rng w) 1, t) ])))

let gen_batch rng ~tuples ~every ~vars ~clauses =
  let udb = Udb.create () in
  Udb.add_urelation udb "R"
    (lineage_relation rng (Udb.wtable udb) ~tuples ~every ~vars ~clauses);
  udb

(* A dirty_db fixture's [people] relation, with its variables added to
   the W table [into] (Gen.dirty_db builds a database of its own). *)
let import_people ~into fixture =
  let w = Udb.wtable fixture in
  let fresh = Hashtbl.create 64 in
  let var v =
    match Hashtbl.find_opt fresh v with
    | Some v' -> v'
    | None ->
        let v' =
          Wtable.add_var into
            (List.init (Wtable.domain_size w v) (Wtable.prob w v))
        in
        Hashtbl.add fresh v v';
        v'
  in
  let people = Udb.find fixture "people" in
  Urelation.make (Urelation.schema people)
    (List.map
       (fun (a, t) ->
         (Assignment.of_list (List.map (fun (v, x) -> (var v, x)) (Assignment.bindings a)), t))
       (Urelation.rows people))

let gen_serve rng =
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let rel n =
    lineage_relation rng w ~tuples:n ~every:1 ~vars:sm_vars ~clauses:sm_clauses
  in
  Udb.add_urelation udb "hot" (rel sm_hot);
  Udb.add_urelation udb "cold" (rel sm_cold);
  Array.iter
    (fun name ->
      let fixture =
        Pqdb_workload.Gen.dirty_db rng ~entities:sm_entities ~max_dups:sm_max_dups
      in
      Udb.add_urelation udb name (import_people ~into:w fixture))
    people_rels;
  udb

(* query-mix database: S(a, g) and T(g, c) tuple-independent for the
   projection-joins and σ̂ thresholds, Dirty for repair-key cleaning. *)
let gen_query_db rng =
  let udb = Udb.create () in
  let w = Udb.wtable udb in
  let low_var () =
    let num = 1 + Rng.int rng 3 in
    Wtable.add_var w [ Q.of_ints (10 - num) 10; Q.of_ints num 10 ]
  in
  let s_rows =
    List.init qm_s_rows (fun a ->
        ( Assignment.singleton (low_var ()) 1,
          Tuple.of_list [ Value.Int a; Value.Int (Rng.int rng qm_groups) ] ))
  in
  let cats = [| "c0"; "c1"; "c2"; "c3" |] in
  let t_rows =
    List.concat
      (List.init qm_groups (fun g ->
           List.init 2 (fun _ ->
               ( Assignment.singleton (tenths_var rng w) 1,
                 Tuple.of_list
                   [ Value.Int g; Value.Str cats.(Rng.int rng 4) ] ))))
  in
  Udb.add_urelation udb "S" (Urelation.make (Schema.of_list [ "a"; "g" ]) s_rows);
  Udb.add_urelation udb "T" (Urelation.make (Schema.of_list [ "g"; "c" ]) t_rows);
  Udb.add_complete udb "Dirty"
    (Pqdb_workload.Scenarios.dirty_customers rng ~customers:qm_customers
       ~max_dups:3);
  udb

(* Exact confidences of a query's answers, keyed by their printed cells. *)
let render_tuple t =
  List.map (fun v -> Format.asprintf "%a" Value.pp v) (Tuple.to_list t)

let exact_of udb oracle =
  Pqdb.Eval_exact.confidences (Udb.copy udb) (Pqdb_lang.Qparser.parse_query oracle)
  |> List.map (fun (t, p) -> (render_tuple t, Q.to_float p))

(* One query-list entry: kind, CLI subcommand, the request's --seed, σ̂
   threshold (or 0), the query text the program receives, and the
   lineage-producing subquery the exact oracle evaluates. *)
type query = {
  kind : string;
  sub : string;
  qseed : int;
  theta : float;
  text : string;
  oracle : string;
}

(* The list is long enough that a timed run rarely wraps around it: every
   request is a fresh draw, so a run's figures average over hundreds of
   draws instead of one seed's few.  Kinds come in shuffled blocks of 24
   with fixed counts: 7 projection-joins under aconf, 5 repair-key
   cleanings under aconf, 4 top-k, 3 σ̂ with the threshold 0.25 below the
   exact confidence (far_yes), 2 with it 0.25 above (far_no) and 3 with it
   1% below (near: the answer is yes, and Figure 3 must separate the
   confidence from a threshold just under it).  σ̂ joins T with a window of
   [sigma_width] consecutive S tuples: on larger joins a near-threshold
   decision that doubles its round budget takes 1-2.5 s, so a run would
   hold a handful of them and their count would decide its figures.  On a
   window about a quarter of the near requests double, at 2-3 times the
   cost of the others: 3% of all requests, so lat_p99_ms falls among them.
   There are 120 windows-and-category subqueries, so every run samples
   many.  With the 5 join selectivities, 4 cities and 2 top-k queries the
   exact oracle evaluates at most 131 distinct queries. *)
let qm_blocks = 150
let sigma_width = 4

let block_kinds =
  List.concat
    [
      List.init 7 (fun _ -> "pj");
      List.init 5 (fun _ -> "clean");
      List.init 4 (fun _ -> "topk");
      List.init 3 (fun _ -> "far_yes");
      List.init 2 (fun _ -> "far_no");
      List.init 3 (fun _ -> "near");
    ]

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let gen_queries rng udb =
  let cities = [| "vienna"; "ithaca"; "vancouver"; "saarbruecken" |] in
  let cats = [| "c0"; "c1"; "c2"; "c3" |] in
  let join_k () = 20 * (1 + Rng.int rng 5) in
  let sigma_window () =
    let lo = sigma_width * Rng.int rng (qm_s_rows / sigma_width) in
    Printf.sprintf "select[a >= %d](select[a < %d](S))" lo (lo + sigma_width)
  in
  let exact = Hashtbl.create 32 in
  let exact_one inner =
    match Hashtbl.find_opt exact inner with
    | Some p -> p
    | None ->
        let p = match exact_of udb inner with [ (_, p) ] -> p | _ -> 0. in
        Hashtbl.add exact inner p;
        p
  in
  let entry kind =
    let qseed = Rng.int rng 1_000_000 in
    match kind with
    | "pj" ->
        let inner =
          Printf.sprintf "project[c](select[a < %d](S) join T)" (join_k ())
        in
        { kind; sub = "run"; qseed; theta = 0.; oracle = inner;
          text = Printf.sprintf "aconf[0.1, 0.05](%s)" inner }
    | "clean" ->
        let inner =
          Printf.sprintf
            "project[Name](select[City = '%s'](repairkey[Id @ W](Dirty)))"
            cities.(Rng.int rng 4)
        in
        { kind; sub = "run"; qseed; theta = 0.; oracle = inner;
          text = Printf.sprintf "aconf[0.1, 0.05](%s)" inner }
    | "topk" ->
        let inner =
          if Rng.bool rng then "project[c](S join T)"
          else "project[Name](repairkey[Id @ W](Dirty))"
        in
        { kind; sub = "topk"; qseed; theta = 0.; oracle = inner; text = inner }
    | _ ->
        (* σ̂ on one category of a projection-join *)
        let rec pick () =
          let inner =
            Printf.sprintf
              "select[c = '%s'](project[c](%s join T))"
              cats.(Rng.int rng 4) (sigma_window ())
          in
          let p = exact_one inner in
          if p > 0.05 && p < 0.95 then (inner, p) else pick ()
        in
        let inner, p = pick () in
        let theta =
          if kind = "far_yes" then Float.max 0.01 (p -. 0.25)
          else if kind = "far_no" then Float.min 0.99 (p +. 0.25)
          else p *. 0.99
        in
        { kind; sub = "run"; qseed; theta; oracle = inner;
          text = Printf.sprintf "aselect[$1 >= %.6f | conf[c]](%s)" theta inner }
  in
  List.concat
    (List.init qm_blocks (fun _ -> List.map entry (shuffle rng block_kinds)))

let write_queries path qs =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun q ->
          Printf.fprintf oc "%s\t%s\t%d\t%.6f\t%s\t%s\n" q.kind q.sub q.qseed
            q.theta q.text q.oracle)
        qs)

let read_queries path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ kind; sub; qseed; theta; text; oracle ] ->
             { kind; sub; qseed = int_of_string qseed;
               theta = float_of_string theta; text; oracle }
         | _ -> die "bad query line %S" l)

let gen workload seed dir =
  let rng = Rng.create ~seed in
  let db = Filename.concat dir "db.udbb" in
  let fuel = M.Compile.default_fuel and cache = M.Memo.default_entries in
  match workload with
  | "batch-compile" ->
      Udb_binary.save db
        (gen_batch rng ~tuples:bc_tuples ~every:bc_every ~vars:bc_vars
           ~clauses:bc_clauses);
      Printf.printf
        "sizes: %d tuples in R, %d of them %d-var/%d-clause DNFs that compile \
         exactly under Compile.default_fuel=%d; Memo (%d entries) bypassed\n"
        bc_tuples (bc_tuples / bc_every) bc_vars bc_clauses fuel cache
  | "batch-sample" ->
      Udb_binary.save db
        (gen_batch rng ~tuples:bs_tuples ~every:bs_every ~vars:bs_vars
           ~clauses:bs_clauses);
      Printf.printf
        "sizes: %d tuples in R, %d of them %d-var/%d-clause DNFs that \
         exhaust Compile.default_fuel=%d; eps %g delta %g; Memo (%d entries) \
         bypassed\n"
        bs_tuples (bs_tuples / bs_every) bs_vars bs_clauses fuel bs_eps
        bs_delta cache
  | "serve-mix" ->
      Udb_binary.save db (gen_serve rng);
      Printf.printf
        "sizes: hot %d tuples (%.2fx Memo.default_entries=%d), cold %d tuples \
         (%.2fx), %d-var/%d-clause DNFs each, exact under \
         Compile.default_fuel=%d; %d people fixtures of %d entities x up to \
         %d candidates\n"
        sm_hot
        (float sm_hot /. float cache)
        cache sm_cold
        (float sm_cold /. float cache)
        sm_vars sm_clauses fuel (Array.length people_rels) sm_entities
        sm_max_dups
  | "query-mix" ->
      let udb = gen_query_db rng in
      Udb_binary.save db udb;
      write_queries (Filename.concat dir "queries.tsv") (gen_queries rng udb);
      Printf.printf
        "sizes: S %d, T %d, Dirty %d customers; %d queries; \
         Compile.default_fuel=%d, Memo (%d entries) unused\n"
        qm_s_rows (2 * qm_groups) qm_customers
        (qm_blocks * List.length block_kinds)
        fuel cache
  | w -> die "unknown workload %S" w

(* ------------------------------------------------------------------ *)
(* Oracles                                                               *)
(* ------------------------------------------------------------------ *)

let clause_sets udb rel =
  Array.of_list (List.map snd (Urelation.clauses_by_tuple (Udb.find udb rel)))

(* Parse one "<index> %h %h %h <trials>" batch/serve line. *)
let parse_line l =
  match String.split_on_char ' ' l with
  | [ i; est; lo; hi; trials ] ->
      Some
        ( int_of_string i,
          float_of_string est,
          float_of_string lo,
          float_of_string hi,
          int_of_string trials )
  | _ -> None
  | exception _ -> None

let lines_of s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* Relative distance of the truth from a bracket (0 inside it). *)
let rel_miss truth lo hi =
  if truth <= 0. then if lo <= 0. then 0. else infinity
  else Float.max 0. (Float.max (lo -. truth) (truth -. hi)) /. truth

let within ~tol truth lo hi = rel_miss truth lo hi <= tol

let compiled_fd udb rel =
  Cond.compile udb
    (Cset.of_list [ Pqdb_lang.Qparser.parse_constraint (fd_constraint rel) ])

(* Exact conditioned confidence of every tuple of one people fixture, in
   reply order. *)
let exact_people udb rel =
  let c = compiled_fd udb rel in
  let w = Udb.wtable udb in
  Array.map
    (fun cl -> Q.to_float (Cond.exact_conditioned w c cl))
    (clause_sets udb rel)

(* One file <dir>/<fixture>.exact per people fixture: per tuple the exact
   conditioned confidence and its [rounding_bound]. *)
let refs_serve db dir =
  let udb = Udb_binary.load db in
  let w = Udb.wtable udb in
  Array.iter
    (fun rel ->
      let sets = clause_sets udb rel in
      let vars = Hashtbl.create 64 in
      Array.iter
        (List.iter (Assignment.iter_vars (fun v -> Hashtbl.replace vars v ())))
        sets;
      let pr_c = Q.to_float (Cond.probability w (compiled_fd udb rel)) in
      Out_channel.with_open_text (Filename.concat dir (rel ^ ".exact")) (fun oc ->
          Array.iter
            (fun v ->
              Printf.fprintf oc "%h %h\n" v
                (rounding_bound ~vars:(Hashtbl.length vars) ~pr_c v))
            (exact_people udb rel)))
    people_rels

(* batch-compile: every line reports 0 trials, and a seeded sample of the
   DNF tuples matches Confidence.by_shannon. *)
let check_compile db out seed k =
  let udb = Udb_binary.load db in
  let sets = clause_sets udb "R" in
  let w = Udb.wtable udb in
  let lines =
    Array.of_list (lines_of (In_channel.with_open_text out In_channel.input_all))
  in
  let bad = ref 0 and checked = ref 0 in
  if Array.length lines <> Array.length sets then incr bad;
  Array.iter
    (fun l ->
      match parse_line l with
      | Some (_, est, lo, hi, trials) ->
          if trials <> 0 || not (lo <= est && est <= hi) then incr bad
      | None -> incr bad)
    lines;
  let rng = Rng.create ~seed in
  let n = min (Array.length lines) (Array.length sets) in
  let dnfs = List.filter (fun i -> i mod bc_every = bc_every - 1) (List.init n Fun.id) in
  let dnfs = Array.of_list dnfs in
  for _ = 1 to min k (Array.length dnfs) do
    let i = dnfs.(Rng.int rng (Array.length dnfs)) in
    incr checked;
    let truth = Q.to_float (Confidence.by_shannon w sets.(i)) in
    match parse_line lines.(i) with
    | Some (j, est, lo, hi, _) when j = i && within ~tol:oracle_tol truth lo hi
                                   && within ~tol:oracle_tol truth est est -> ()
    | _ -> incr bad
  done;
  Printf.printf "checked %d wrong %d\n" (!checked + Array.length lines) !bad

(* --- query-mix answers --------------------------------------------- *)

let cells line =
  String.split_on_char '|' line
  |> List.map String.trim
  |> function
  | "" :: rest -> List.filter (fun s -> s <> "") rest
  | l -> l

(* Rows of a Relation.pp table: lines starting with '|' after the header. *)
let table_rows out =
  let rows = List.filter (fun l -> String.length l > 0 && l.[0] = '|') (lines_of out) in
  match rows with [] -> [] | _header :: body -> List.map cells body

(* aconf: same tuples, each estimate within 3 eps of the truth (a miss that
   large has probability far below delta) plus print rounding. *)
let check_aconf exact out =
  let rows = table_rows out in
  List.length rows = List.length exact
  && List.for_all
       (fun row ->
         match List.rev row with
         | p :: rev_key -> (
             let key = List.rev rev_key in
             match List.assoc_opt key exact with
             | Some truth ->
                 Float.abs (float_of_string p -. truth)
                 <= (0.3 *. truth) +. 5e-6
             | None -> false)
         | [] -> false)
       rows

(* Tuples the output lists under "-- singularity suspects:". *)
let suspects out =
  let rec go acc inside = function
    | [] -> acc
    | l :: rest ->
        if l = "-- singularity suspects:" then go acc true rest
        else if inside && String.starts_with ~prefix:"--   (" l then
          let body = String.sub l 6 (String.length l - 7) in
          go (List.map String.trim (String.split_on_char ',' body) :: acc) true rest
        else go acc false rest
  in
  go [] false (lines_of out)

(* σ̂: the decisions on tuples whose truth is at least 0.05 from the
   threshold (nearer ones may go either way), as (decided, wrong, wrong and
   flagged as a singularity suspect).  Figure 3 and Theorem 6.7 promise
   each such decision with probability at least 1 − δ, not always, so a
   single wrong one is no failure; check_query counts them and run.py tests
   the count against δ. *)
let check_select exact theta out =
  let chosen = table_rows out in
  let sus = suspects out in
  List.fold_left
    (fun (n, bad, bad_sus) (key, p) ->
      if Float.abs (p -. theta) < 0.05 then (n, bad, bad_sus)
      else if List.mem key chosen = (p >= theta) then (n + 1, bad, bad_sus)
      else (n + 1, bad + 1, if List.mem key sus then bad_sus + 1 else bad_sus))
    (0, 0, 0) exact

(* The per-tuple error target δ a σ̂ answer states on its
   "-- per-tuple error bounds (target δ):" line. *)
let stated_delta out =
  List.find_map
    (fun l ->
      try Scanf.sscanf l "-- per-tuple error bounds (target %f):%!" Option.some
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (lines_of out)

(* top-k: every returned tuple's truth is within 0.05 of the k-th best. *)
let check_topk exact out =
  let ranked =
    List.filter_map
      (fun l ->
        match String.index_opt l '(' with
        | Some i when String.length l > 2 && l.[0] >= '1' && l.[0] <= '9' -> (
            match String.index_from_opt l i ')' with
            | Some j -> Some (String.sub l (i + 1) (j - i - 1))
            | None -> None)
        | _ -> None)
      (lines_of out)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) exact in
  let k = List.length ranked in
  k = min 3 (List.length exact)
  && k > 0
  &&
  let kth = snd (List.nth sorted (k - 1)) in
  List.for_all
    (fun r ->
      let key = List.map String.trim (String.split_on_char ',' r) in
      match List.assoc_opt key exact with
      | Some p -> p >= kth -. 0.05
      | None -> false)
    ranked

(* Manifest lines: "<query index>\t<output file>"; the query index refers
   to queries.tsv.  Prints the answers checked and wrong (σ̂ decisions
   apart), then the σ̂ decisions far from their threshold, how many of them
   were wrong and flagged suspect, and the largest δ the answers stated. *)
let check_query dir manifest =
  let udb = Udb_binary.load (Filename.concat dir "db.udbb") in
  let qs = Array.of_list (read_queries (Filename.concat dir "queries.tsv")) in
  let exact = Hashtbl.create 16 in
  let bad = ref 0 and checked = ref 0 in
  let far = ref 0 and far_bad = ref 0 and suspect = ref 0 and delta = ref 0. in
  In_channel.with_open_text manifest In_channel.input_all
  |> lines_of
  |> List.iter (fun l ->
         match String.split_on_char '\t' l with
         | [ idx; path ] ->
             let q = qs.(int_of_string idx) in
             let ex =
               match Hashtbl.find_opt exact q.oracle with
               | Some e -> e
               | None ->
                   let e = exact_of udb q.oracle in
                   Hashtbl.add exact q.oracle e;
                   e
             in
             let out = In_channel.with_open_text path In_channel.input_all in
             incr checked;
             let ok =
               match q.kind with
               | "pj" | "clean" -> check_aconf ex out
               | "topk" -> check_topk ex out
               | _ -> (
                   match stated_delta out with
                   | None -> false
                   | Some d ->
                       let n, b, b_sus = check_select ex q.theta out in
                       far := !far + n;
                       far_bad := !far_bad + b;
                       suspect := !suspect + b_sus;
                       delta := Float.max !delta d;
                       if b > 0 then
                         Printf.eprintf "wrong σ̂ decision in query %s (%s): %s\n"
                           idx q.kind q.text;
                       true)
             in
             if not ok then begin
               incr bad;
               Printf.eprintf "wrong answer to query %s (%s): %s\n" idx q.kind
                 q.text
             end
         | _ -> die "bad manifest line %S" l);
  Printf.printf "checked %d wrong %d sigma_far %d sigma_wrong %d suspect %d delta %h\n"
    !checked !bad !far !far_bad !suspect !delta

(* ------------------------------------------------------------------ *)
(* serve-mix requests                                                    *)
(* ------------------------------------------------------------------ *)

(* [Assert k] and [Cond k] name the people fixture [people_rels.(k)]. *)
type kind = Hot | Cold | Hot_dl | Cold_dl | Assert of int | Cond of int | Retract

let kind_name = function
  | Hot -> "hot"
  | Cold -> "cold"
  | Hot_dl -> "hot_dl"
  | Cold_dl -> "cold_dl"
  | Assert _ -> "assert"
  | Cond _ -> "cond"
  | Retract -> "retract"

let spec = function
  | Hot -> "conf hot " ^ serve_q
  | Cold -> "conf cold " ^ serve_q
  | Hot_dl -> Printf.sprintf "conf hot %s deadline=%g" serve_q hot_deadline
  | Cold_dl -> Printf.sprintf "conf cold %s deadline=%g" serve_q cold_deadline
  | Assert k -> "assert " ^ fd_constraint people_rels.(k)
  | Cond k -> Printf.sprintf "conf %s %s" people_rels.(k) serve_q
  | Retract -> "retract"

let deadline_of = function
  | Hot_dl -> hot_deadline
  | Cold_dl -> cold_deadline
  | _ -> 0.

(* The two connections play different roles.  The reader sends conf
   requests in blocks of 15 with fixed counts, in seeded order: 9 conf hot,
   3 conf cold, 2 conf hot with a deadline and 1 conf cold with a deadline.
   The cleaner cycles assert fd → conf → retract over each people fixture
   in turn: the session writes that re-salt cache keys.  Keeping the cache-sensitive requests on one
   connection makes the hit pattern a property of the seed, not of how the
   two connections happen to interleave. *)
let reader_block rng =
  let steps =
    Array.concat
      [
        Array.make 9 Hot; Array.make 3 Cold; Array.make 2 Hot_dl;
        Array.make 1 Cold_dl;
      ]
  in
  for i = Array.length steps - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = steps.(i) in
    steps.(i) <- steps.(j);
    steps.(j) <- t
  done;
  Array.to_list steps

let cleaner_block =
  List.concat
    (List.init (Array.length people_rels) (fun k -> [ Assert k; Cond k; Retract ]))

type refs = { hot : string; cold : string; people : (float * float) array array }

let read_file p = In_channel.with_open_text p In_channel.input_all

let load_refs dir =
  {
    hot = read_file (Filename.concat dir "hot.ref");
    cold = read_file (Filename.concat dir "cold.ref");
    people =
      Array.map
        (fun rel ->
          Array.of_list
            (List.map
               (fun l -> Scanf.sscanf l "%h %h" (fun v b -> (v, b)))
               (lines_of (read_file (Filename.concat dir (rel ^ ".exact"))))))
        people_rels;
  }

let ref_values body =
  Array.of_list
    (List.map
       (fun l -> match parse_line l with Some (_, e, _, _, _) -> e | None -> nan)
       (lines_of body))

(* A reply's verdict: conf is byte-identical to the batch reference; a
   deadline reply brackets the reference value; a conditioned reply
   brackets the exact rational within [oracle_tol].  A conditioned miss
   larger than that but within the tuple's [rounding_bound] is the known
   float-precision defect of conditioned confidences (an exact point
   bracket that excludes the rational): [`Precision].  Anything else is
   [`Wrong], so an answer that is off by more than float rounding can
   explain (the unconditioned value, say) still fails. *)
let verdict refs kind body =
  let severity = function `Right -> 0 | `Precision -> 1 | `Wrong -> 2 in
  let brackets truths =
    let ls = Array.of_list (lines_of body) in
    if Array.length ls <> Array.length truths then `Wrong
    else
      Array.fold_left
        (fun acc v -> if severity v > severity acc then v else acc)
        `Right
        (Array.mapi
           (fun i l ->
             let truth, bound = truths.(i) in
             match parse_line l with
             | Some (j, est, lo, hi, _) when j = i && lo <= est && est <= hi ->
                 if within ~tol:oracle_tol truth lo hi then `Right
                 else if Float.max (lo -. truth) (truth -. hi) <= bound then
                   `Precision
                 else `Wrong
             | _ -> `Wrong)
           ls)
  in
  let exact_refs body = Array.map (fun v -> (v, 0.)) (ref_values body) in
  let same a b = if a = b then `Right else `Wrong in
  match kind with
  | Hot -> same body refs.hot
  | Cold -> same body refs.cold
  | Hot_dl -> brackets (exact_refs refs.hot)
  | Cold_dl -> brackets (exact_refs refs.cold)
  | Cond k -> brackets refs.people.(k)
  | Assert _ | Retract -> `Right

let verdict_name = function
  | `Right -> "right"
  | `Precision -> "precision"
  | `Wrong -> "wrong"

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let memo_counts c =
  match Client.query c "stats" with
  | true, body ->
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ "cache"; "capacity"; _; "entries"; _; "hits"; h; "misses"; m;
              "evictions"; e ] ->
              Some (int_of_string h, int_of_string m, int_of_string e)
          | _ -> None)
        (lines_of body)
      |> Option.value ~default:(0, 0, 0)
  | false, _ -> (0, 0, 0)

(* Closed loop: 2 threads (the reader on the main thread, the cleaner on
   one more), one connection each; a thread sends its next request only
   after the previous reply arrived.  One record per request:
   thread kind start_s latency_ms ok verdict tuples deadline_s. *)
let serve_load socket seconds seed refdir out =
  let refs = load_refs refdir in
  let listen = Server.Unix_socket socket in
  let lock = Mutex.create () in
  let records = ref [] in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let memo0 = ref (0, 0, 0) and memo1 = ref (0, 0, 0) in
  let worker id =
    let rng = Rng.create ~seed in
    let c = Client.connect ~retries:50 ~retry_delay_s:0.05 listen in
    if id = 0 then memo0 := memo_counts c;
    let pending = ref [] in
    while now () < t_end do
      if !pending = [] then
        pending := if id = 0 then reader_block rng else cleaner_block;
      let kind = List.hd !pending in
      pending := List.tl !pending;
      let t0 = now () in
      let ok, body =
        match Client.query c (spec kind) with
        | r -> r
        | exception e -> (false, Printexc.to_string e)
      in
      let lat = now () -. t0 in
      let v = if ok then verdict refs kind body else `Wrong in
      let tuples =
        match kind with
        | Assert _ | Retract -> 0
        | _ -> if ok then count_lines body else 0
      in
      Mutex.protect lock (fun () ->
          records :=
            Printf.sprintf "%d %s %.6f %.6f %b %s %d %g" id (kind_name kind)
              (t0 -. t_start) (lat *. 1000.) ok (verdict_name v) tuples
              (deadline_of kind)
            :: !records)
    done;
    if id = 0 then memo1 := memo_counts c;
    Client.close c
  in
  let cleaner = Thread.create worker 1 in
  worker 0;
  Thread.join cleaner;
  let elapsed = now () -. t_start in
  let (h0, m0, e0), (h1, m1, e1) = (!memo0, !memo1) in
  Out_channel.with_open_text out (fun oc ->
      List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !records));
  Printf.printf "elapsed %.6f memo_hits %d memo_misses %d memo_evictions %d\n"
    elapsed (h1 - h0) (m1 - m0) (e1 - e0)

(* ------------------------------------------------------------------ *)
(* Tracing: spans recorded in memory around calls into each layer.      *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    parent : int;
    req : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let spans : span list ref = ref []
  let next = ref 0
  let stack = ref []
  let req = ref 0
  let lock = Mutex.create ()

  (* Off: a plain call.  On: a span named after the layer's metric, child
     of the innermost open span, tagged with the current request id. *)
  let span name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; parent; req = !req; name; t0; t1 } :: !spans
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* A root span measured by a client thread. *)
  let record name req t0 t1 =
    Mutex.protect lock (fun () ->
        let id = !next in
        incr next;
        spans := { id; parent = -1; req; name; t0; t1 } :: !spans)

  let reset () =
    spans := [];
    next := 0;
    stack := [];
    req := 0

  (* Self time: a span's duration minus the time its children cover
     (children never overlap: one thread opens them in sequence). *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      !spans;
    List.map
      (fun s ->
        (s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
      !spans

  let write path =
    Out_channel.with_open_text path (fun oc ->
        output_string oc "id\tparent\treq\tname\tstart_us\tend_us\n";
        let base = List.fold_left (fun a s -> Float.min a s.t0) infinity !spans in
        List.iter
          (fun s ->
            Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" s.id s.parent s.req
              s.name ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
          (List.rev !spans))
end

let span = Trace.span

(* Counters kept beside the spans, at the same call sites. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))
let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- batch replay: the path `pqdb batch --db --relation --checkpoint`
   takes (Confidence.run_stream), one public call at a time. *)
let replay_batch ~db ~eps ~delta ~seed ~journal =
  let udb =
    span "urel.load" (fun () ->
        let u = Udb_binary.load db in
        ignore (Udb.find u "R");
        u)
  in
  let u = Udb.find udb "R" in
  let w = Udb.wtable udb in
  let sets =
    span "urel.clauses_by_tuple" (fun () ->
        Array.of_list (List.map snd (Urelation.clauses_by_tuple u)))
  in
  let n = Array.length sets in
  let opts = M.Confidence.default_stream_options in
  let shards =
    span "montecarlo.shard_plan" (fun () ->
        M.Shard.plan ~eps ~delta ~max_cost:opts.M.Confidence.shard_cost sets)
  in
  let lanes = Rng.split_n (Rng.create ~seed) n in
  if Sys.file_exists journal then Sys.remove journal;
  let meta =
    M.Shard.meta_payload ~n ~eps ~delta ~fuel:None
      ~shard_cost:opts.M.Confidence.shard_cost
  in
  let jr, _ =
    M.Shard.open_journal ~resume:false ~meta ~plan:shards ~clause_sets:sets
      journal
  in
  let out = Buffer.create (n * 64) in
  Array.iter
    (fun (sh : M.Shard.t) ->
      span "montecarlo.shard" (fun () ->
          let k = sh.M.Shard.count in
          let est = Array.make k 0. and iv = Array.make k (0., 0.) in
          let trials = Array.make k 0 and ach = Array.make k 0. in
          let mass = Array.make k 0. and complete = ref true in
          for j = 0 to k - 1 do
            let cl = sets.(sh.M.Shard.first + j) in
            ignore (span "montecarlo.normalize" (fun () -> M.Lineage.normalize cl));
            let c = span "montecarlo.compile" (fun () -> M.Compile.compile w cl) in
            count "nodes" (float (M.Compile.size c));
            count "residuals" (float (M.Compile.residual_count c));
            if M.Compile.is_exact c then count "exact" 1.;
            ignore (span "montecarlo.vacuous_interval" (fun () -> M.Compile.vacuous_interval c));
            let o =
              span "montecarlo.solve" (fun () ->
                  M.Compile.solve (Rng.copy lanes.(sh.M.Shard.first + j)) c ~eps ~delta)
            in
            count "trials" (float o.M.Compile.trials);
            count "width" (o.M.Compile.hi -. o.M.Compile.lo);
            est.(j) <- o.M.Compile.value;
            iv.(j) <- (o.M.Compile.lo, o.M.Compile.hi);
            trials.(j) <- o.M.Compile.trials;
            ach.(j) <- o.M.Compile.achieved_eps;
            mass.(j) <- o.M.Compile.residual_mass;
            if not o.M.Compile.complete then complete := false
          done;
          let outcome =
            {
              M.Shard.shard = sh;
              fp = M.Shard.fingerprint sets sh;
              estimates = est;
              intervals = iv;
              trials;
              achieved = ach;
              masses = mass;
              complete = !complete;
              resumed = false;
              quarantined = None;
            }
          in
          span "runtime.journal_append" (fun () ->
              let p = M.Shard.to_payload outcome in
              count "journal_bytes" (float (String.length p));
              M.Shard.journal_append jr p);
          span "cli.emit" (fun () ->
              Array.iteri
                (fun j e ->
                  let lo, hi = iv.(j) in
                  Printf.bprintf out "%d %h %h %h %d\n" (sh.M.Shard.first + j) e
                    lo hi trials.(j))
                est)))
    shards;
  M.Shard.close_journal jr;
  count "tuples" (float n);
  Buffer.contents out

(* --- serve replay: one reader block, then one cleaner cycle, repeated. *)
let serve_steps seed blocks =
  let rng = Rng.create ~seed in
  List.concat (List.init blocks (fun _ -> reader_block rng @ cleaner_block))

let serve_config db socket =
  {
    Server.db_path = db;
    listen = Server.Unix_socket socket;
    cache_entries = M.Memo.default_entries;
    session_trials = None;
    session_deadline_s = None;
    io_timeout_s = None;
    idle_timeout_s = None;
    max_sessions = None;
    watchdog_s = None;
  }

(* Conditioned answers (the `pqdb batch --assert` path) whose bracket
   misses the exact rational by more than [strict_tol], and the largest
   relative miss; a refused batch counts every tuple. *)
let cond_mismatches w compiled sets exact ~seed =
  let n = Array.length sets in
  let rngs = Rng.split_n (Rng.create ~seed) (n + 1) in
  match
    Cond.solve_denominator rngs.(n) w compiled ~eps:serve_eps ~delta:serve_delta
  with
  | exception Pqdb_runtime.Pqdb_error.Error _ -> (n, infinity)
  | den ->
      Array.fold_left
        (fun (bad, worst) i ->
          let e =
            Cond.solve_clauses rngs.(i) w compiled den sets.(i) ~eps:serve_eps
              ~delta:serve_delta
          in
          let m = rel_miss exact.(i) e.Cond.lo e.Cond.hi in
          ((if m > strict_tol then bad + 1 else bad), Float.max worst m))
        (0, 0.)
        (Array.init n Fun.id)

(* The repro fixture of the conditioning precision defect, `pqdb gen
   --tuples 10 --dirty E --max-dups 3` (default gen seed 209), from the
   served size up to the sizes where it reported an exact bracket that
   excludes the truth (100) and refused with Pr(c) = 0 (120). *)
let defect_ladder () =
  List.map
    (fun entities ->
      let rng = Rng.create ~seed:209 in
      let udb = Pqdb_workload.Gen.uncertain_db rng ~tuples:10 ~clauses:3 in
      Pqdb_workload.Gen.add_dirty_people rng udb ~entities ~max_dups:3;
      let sets = clause_sets udb "people" in
      let bad, worst =
        cond_mismatches (Udb.wtable udb) (compiled_fd udb "people") sets
          (exact_people udb "people") ~seed:serve_seed
      in
      (entities, Array.length sets, bad, worst))
    [ sm_entities; 40; 60; 100; 120 ]

let replay_serve_layers ~db ~steps ~exact ~worst =
  let udb = span "urel.load" (fun () -> Udb_binary.load db) in
  let w = Udb.wtable udb in
  let memo = M.Memo.create () in
  let compiled = ref None in
  List.iteri
    (fun r kind ->
      Trace.req := r;
      span ("req." ^ kind_name kind) (fun () ->
          let rel =
            match kind with
            | Hot | Hot_dl -> "hot"
            | Cold | Cold_dl -> "cold"
            | Assert k | Cond k -> people_rels.(k)
            | Retract -> ""
          in
          let budget =
            match kind with
            | Hot_dl | Cold_dl ->
                Some (M.Budget.create ~deadline_s:(deadline_of kind) ())
            | _ -> None
          in
          match kind with
          | Assert _ | Retract -> compiled := None
          | Cond k ->
              let c =
                match !compiled with
                | Some c -> c
                | None ->
                    let c = span "conditioning.compile" (fun () -> compiled_fd udb rel) in
                    compiled := Some c;
                    c
              in
              let sets =
                span "urel.clauses_by_tuple" (fun () -> clause_sets udb rel)
              in
              let n = Array.length sets in
              let rngs = Rng.split_n (Rng.create ~seed:serve_seed) (n + 1) in
              let den =
                span "conditioning.denominator" (fun () ->
                    Cond.solve_denominator ~cache:memo rngs.(n) w c
                      ~eps:serve_eps ~delta:serve_delta)
              in
              Array.iteri
                (fun i cl ->
                  let e =
                    span "conditioning.solve" (fun () ->
                        Cond.solve_clauses ~cache:memo rngs.(i) w c den cl
                          ~eps:serve_eps ~delta:serve_delta)
                  in
                  let m = rel_miss exact.(k).(i) e.Cond.lo e.Cond.hi in
                  if m > strict_tol then count "cond_mismatch" 1.;
                  worst := Float.max !worst m)
                sets
          | Hot | Cold | Hot_dl | Cold_dl ->
              let sets =
                span "urel.clauses_by_tuple" (fun () -> clause_sets udb rel)
              in
              let rngs = Rng.split_n (Rng.create ~seed:serve_seed) (Array.length sets) in
              let s0 = M.Memo.stats memo in
              Array.iteri
                (fun i cl ->
                  let tree =
                    span "memo.lookup" (fun () ->
                        M.Memo.find_or_compile memo w cl ~build:(fun () ->
                            span "montecarlo.compile" (fun () -> M.Compile.compile w cl)))
                  in
                  if budget <> None then
                    ignore
                      (span "montecarlo.vacuous_interval" (fun () ->
                           M.Compile.vacuous_interval tree));
                  let o =
                    span "montecarlo.solve" (fun () ->
                        M.Compile.solve ?budget rngs.(i) tree ~eps:serve_eps
                          ~delta:serve_delta)
                  in
                  count "trials" (float o.M.Compile.trials);
                  count "width" (o.M.Compile.hi -. o.M.Compile.lo);
                  count "tuples" 1.;
                  count "nodes" (float (M.Compile.size tree));
                  count "residuals" (float (M.Compile.residual_count tree));
                  if M.Compile.is_exact tree then count "exact" 1.)
                sets;
              let s1 = M.Memo.stats memo in
              let side = if rel = "hot" then "hot" else "cold" in
              count ("hits_" ^ side) (float (s1.M.Memo.hits - s0.M.Memo.hits));
              count ("lookups_" ^ side) (float (Array.length sets));
              count "evictions" (float (s1.M.Memo.evictions - s0.M.Memo.evictions))))
    steps

(* In-process Server.dispatch over the same request sequence: per-kind
   dispatch times. *)
let replay_serve_dispatch ~db ~socket ~steps =
  let t = Server.create (serve_config db socket) in
  let session = Server.new_session () in
  List.iteri
    (fun r kind ->
      Trace.req := r;
      ignore
        (span ("serve.dispatch." ^ kind_name kind) (fun () ->
             Server.dispatch t ~session (spec kind))))
    steps

(* The same sequence over the socket through Pqdb_serve.Client, on 2
   connections as in the timed run (reader and cleaner): per-request round
   trips. *)
let replay_serve_socket ~db ~socket ~steps =
  let t = Server.create (serve_config db socket) in
  let ready = Mutex.create () and cv = Condition.create () and up = ref false in
  let srv =
    Thread.create
      (fun () ->
        ignore
          (Server.run t ~ready:(fun () ->
               Mutex.protect ready (fun () ->
                   up := true;
                   Condition.signal cv))))
      ()
  in
  Mutex.protect ready (fun () -> while not !up do Condition.wait cv ready done);
  let steps = Array.of_list steps in
  let worker id =
    let c = Client.connect ~retries:50 ~retry_delay_s:0.05 (Server.Unix_socket socket) in
    Array.iteri
      (fun r kind ->
        let cleaner = match kind with Assert _ | Cond _ | Retract -> 1 | _ -> 0 in
        if cleaner = id then begin
          let t0 = now () in
          ignore (Client.query c (spec kind));
          Trace.record ("serve.roundtrip." ^ kind_name kind) r t0 (now ())
        end)
      steps;
    Client.close c
  in
  let cleaner = Thread.create worker 1 in
  worker 0;
  Thread.join cleaner;
  let c = Client.connect (Server.Unix_socket socket) in
  ignore (Client.query c "shutdown");
  Client.close c;
  Thread.join srv

(* --- query replay: the calls `pqdb run -a -O` and `pqdb topk` make. *)
let lineage_subquery (q : Pqdb_ast.Ua.t) =
  match q with
  | Pqdb_ast.Ua.ApproxConf (_, x) -> x
  | Pqdb_ast.Ua.ApproxSelect s -> s.Pqdb_ast.Ua.input
  | x -> x

let replay_queries ~db ~queries =
  List.iteri
    (fun r q ->
      Trace.req := r;
      span ("req." ^ q.kind) (fun () ->
          let udb = span "urel.load" (fun () -> Udb_binary.load db) in
          let prog =
            span "lang.parse" (fun () -> Pqdb_lang.Qparser.parse_program_full q.text)
          in
          let query = Option.get prog.Pqdb_lang.Qparser.query in
          if q.sub = "topk" then begin
            ignore
              (span "urel.translate" (fun () ->
                   Pqdb.Eval_exact.eval (Udb.copy udb) query));
            let res =
              span "core.topk" (fun () ->
                  Pqdb.Topk.query ~rng:(Rng.create ~seed:q.qseed) ~delta:0.05 ~k:3 udb
                    query)
            in
            count "estimator_calls" (float res.Pqdb.Topk.estimator_calls)
          end
          else begin
            let query =
              span "core.optimize" (fun () -> Pqdb.Optimizer.optimize_for udb query)
            in
            ignore
              (span "urel.translate" (fun () ->
                   Pqdb.Eval_exact.eval (Udb.copy udb) (lineage_subquery query)));
            let _, stats, rounds =
              span "core.eval_approx" (fun () ->
                  Pqdb.Eval_approx.eval_with_guarantee ~eps0:0.05
                    ~rng:(Rng.create ~seed:q.qseed) ~delta:0.05 udb query)
            in
            count "decisions" (float stats.Pqdb.Eval_approx.decisions);
            count "estimator_calls" (float stats.Pqdb.Eval_approx.estimator_calls);
            count "doubling_rounds" (float rounds)
          end))
    queries

(* ------------------------------------------------------------------ *)
(* The traced run's report                                               *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Self time per layer (span name), over all spans or one request kind. *)
let layer_table ?(only = fun _ -> true) selfs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if only s then begin
        let calls, total, sf =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.Trace.name)
        in
        Hashtbl.replace tbl s.Trace.name
          (calls + 1, total +. (s.Trace.t1 -. s.Trace.t0), sf +. self)
      end)
    selfs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

let print_table title rows =
  let total = List.fold_left (fun a (_, (_, _, s)) -> a +. s) 0. rows in
  Printf.printf "layer table (%s): %-30s %8s %12s %12s %7s\n" title "span"
    "calls" "total_ms" "self_ms" "self%";
  List.iter
    (fun (name, (calls, tot, self)) ->
      Printf.printf "layer table (%s): %-30s %8d %12.3f %12.3f %6.1f%%\n" title
        name calls (tot *. 1000.) (self *. 1000.)
        (if total > 0. then 100. *. self /. total else 0.))
    rows

let self_ms rows name =
  match List.assoc_opt name rows with Some (_, _, s) -> s *. 1000. | None -> 0.

(* Whether [intended] is the layer with the most self time among [rows]
   (request roots excluded), and its share of those rows' self time. *)
let dominance rows intended =
  let rows = List.filter (fun (n, _) -> not (String.starts_with ~prefix:"req." n)) rows in
  let total = List.fold_left (fun a (_, (_, _, s)) -> a +. s) 0. rows in
  let mine = List.fold_left (fun a n -> a +. (self_ms rows n /. 1000.)) 0. intended in
  let top = match rows with (n, _) :: _ -> n | [] -> "-" in
  (List.mem top intended, (if total > 0. then mine /. total else 0.), top)

let overhead_passes = 3

let trace workload dir seed spans_out =
  let db = Filename.concat dir "db.udbb" in
  let out = Hashtbl.create 64 in
  let set k v = Hashtbl.replace out k v in
  (* Tracing overhead: after one untimed pass that warms the page cache and
     the heap, [overhead_passes] untraced and traced passes alternate and
     the medians are compared; a single pair differs by more than the
     tracing costs.  Spans and counters are those of the last traced pass. *)
  let run_both f =
    Trace.on := false;
    ignore (f ());
    let untraced = ref [] and traced = ref [] and last = ref None in
    for _ = 1 to overhead_passes do
      Trace.on := false;
      Hashtbl.reset counters;
      let _, u = timed f in
      Trace.reset ();
      Hashtbl.reset counters;
      Trace.on := true;
      let v, t = timed f in
      Trace.on := false;
      untraced := u :: !untraced;
      traced := t :: !traced;
      last := Some v
    done;
    let u = median !untraced and t = median !traced in
    set "trace.untraced_ms" (u *. 1000.);
    set "trace.traced_ms" (t *. 1000.);
    set "trace.overhead_ms" ((t -. u) *. 1000.);
    Option.get !last
  in
  let intended = ref ([], (fun (_ : Trace.span) -> true), "") in
  (match workload with
  | "batch-compile" | "batch-sample" ->
      let eps, delta =
        if workload = "batch-sample" then (bs_eps, bs_delta)
        else (0.1, 0.05) (* `pqdb batch` defaults *)
      in
      let journal = Filename.concat dir "trace.journal" in
      let body = run_both (fun () -> replay_batch ~db ~eps ~delta ~seed:42 ~journal) in
      Out_channel.with_open_text (Filename.concat dir "replay.out") (fun oc ->
          output_string oc body);
      let n = counter "tuples" in
      set "runtime.journal_bytes_per_tuple" (counter "journal_bytes" /. n);
      intended :=
        ( [ (if workload = "batch-compile" then "montecarlo.compile" else "montecarlo.solve") ],
          (fun _ -> true),
          "all tuples" )
  | "serve-mix" ->
      let steps = serve_steps seed 3 in
      let socket = Filename.concat dir "trace.sock" in
      let exact = Array.map (exact_people (Udb_binary.load db)) people_rels in
      let worst = ref 0. in
      run_both (fun () -> replay_serve_layers ~db ~steps ~exact ~worst);
      set "memo.hit_ratio_hot" (counter "hits_hot" /. Float.max 1. (counter "lookups_hot"));
      set "memo.hit_ratio_cold" (counter "hits_cold" /. Float.max 1. (counter "lookups_cold"));
      set "memo.evictions" (counter "evictions");
      let served = counter "cond_mismatch" in
      let ladder = defect_ladder () in
      List.iter
        (fun (e, n, bad, worst) ->
          Printf.printf
            "conditioning oracle: repro fixture, %d entities (%d tuples): %d \
             answers miss the exact rational by more than %g relative; \
             largest relative miss %.3g\n"
            e n bad strict_tol worst)
        ladder;
      Printf.printf
        "conditioning oracle: served fixtures (%d of %d entities): %.0f answer \
         checks miss by more than %g relative; largest relative miss %.3g\n"
        (Array.length people_rels) sm_entities served strict_tol !worst;
      set "conditioning.oracle_mismatches"
        (served +. float (List.fold_left (fun a (_, _, b, _) -> a + b) 0 ladder));
      (* dispatch and socket phases add spans after the layer replay *)
      let layer_spans = !Trace.spans in
      Trace.on := true;
      replay_serve_dispatch ~db ~socket ~steps;
      let (), e2e = timed (fun () -> replay_serve_socket ~db ~socket ~steps) in
      set "trace.e2e_ms" (e2e *. 1000.);
      Trace.on := false;
      let by_req prefix kinds =
        List.filter_map
          (fun (s : Trace.span) ->
            if List.exists (fun k -> s.Trace.name = prefix ^ k) kinds then
              Some (s.Trace.req, (s.Trace.t1 -. s.Trace.t0) *. 1000.)
            else None)
          !Trace.spans
      in
      let durs prefix kinds = List.map snd (by_req prefix kinds) in
      let conf_kinds = [ "hot"; "cold"; "hot_dl"; "cold_dl"; "cond" ] in
      set "serve.dispatch_ms_hot" (median (durs "serve.dispatch." [ "hot" ]));
      set "serve.dispatch_ms_cold" (median (durs "serve.dispatch." [ "cold" ]));
      set "serve.dispatch_ms_cond" (median (durs "serve.dispatch." [ "cond" ]));
      set "serve.roundtrip_ms" (median (durs "serve.roundtrip." conf_kinds));
      (* Frame overhead per request: its round trip minus its in-process
         dispatch (same request of the same sequence), then the median. *)
      let dispatch = by_req "serve.dispatch." conf_kinds in
      set "serve.frame_overhead_ms"
        (median
           (List.filter_map
              (fun (r, rt) -> Option.map (fun d -> rt -. d) (List.assoc_opt r dispatch))
              (by_req "serve.roundtrip." conf_kinds)));
      let cold_reqs =
        List.filter_map
          (fun (s : Trace.span) ->
            if s.Trace.name = "req.cold" then Some s.Trace.req else None)
          layer_spans
      in
      let in_layers = Hashtbl.create 64 in
      List.iter
        (fun (s : Trace.span) -> Hashtbl.replace in_layers s.Trace.id ())
        layer_spans;
      intended :=
        ( [ "memo.lookup"; "montecarlo.compile" ],
          (fun s -> Hashtbl.mem in_layers s.Trace.id && List.mem s.Trace.req cold_reqs),
          "cold requests" )
  | "query-mix" ->
      (* the first ten blocks of the list: 240 requests, 30 of them near *)
      let queries =
        List.filteri
          (fun i _ -> i < 10 * List.length block_kinds)
          (read_queries (Filename.concat dir "queries.tsv"))
      in
      run_both (fun () -> replay_queries ~db ~queries);
      let near =
        List.filter_map
          (fun (s : Trace.span) -> if s.Trace.name = "req.near" then Some s.Trace.req else None)
          !Trace.spans
      in
      intended :=
        ( [ "core.eval_approx" ],
          (fun s -> List.mem s.Trace.req near),
          "near-threshold queries" )
  | w -> die "unknown workload %S" w);
  let selfs = Trace.self_times () in
  let is_layer (s : Trace.span) =
    not (String.starts_with ~prefix:"serve." s.Trace.name)
  in
  let rows = layer_table ~only:is_layer selfs in
  print_table workload rows;
  let names, only, what = !intended in
  let sub = layer_table ~only:(fun s -> is_layer s && only s) selfs in
  if what <> "all tuples" then print_table (workload ^ ", " ^ what) sub;
  let dom, share, top = dominance sub names in
  Printf.printf "intended layer on %s (%s): %s — %s (share %.1f%%, top self-time layer %s)\n"
    workload what (String.concat " + " names)
    (if dom then "dominates" else "does NOT dominate")
    (100. *. share) top;
  set "trace.intended_share" share;
  List.iter
    (fun m -> set (m ^ "_ms") (self_ms rows m))
    [ "lang.parse"; "core.optimize"; "core.eval_approx"; "core.topk"; "urel.load";
      "urel.translate"; "urel.clauses_by_tuple"; "montecarlo.shard_plan";
      "montecarlo.normalize"; "montecarlo.compile"; "montecarlo.vacuous_interval";
      "montecarlo.solve"; "memo.lookup"; "conditioning.compile";
      "conditioning.denominator"; "conditioning.solve"; "runtime.journal_append";
      "cli.emit" ];
  let tuples = counter "tuples" in
  set "core.sigma_hat_decisions" (counter "decisions");
  set "core.estimator_calls" (counter "estimator_calls");
  set "core.doubling_rounds" (counter "doubling_rounds");
  set "montecarlo.compile_nodes" (counter "nodes");
  set "montecarlo.residuals" (counter "residuals");
  set "montecarlo.exact_frac" (if tuples > 0. then counter "exact" /. tuples else 0.);
  set "montecarlo.trials" (counter "trials");
  let solve = self_ms rows "montecarlo.solve" in
  set "montecarlo.trials_per_ms" (if solve > 0. then counter "trials" /. solve else 0.);
  set "montecarlo.mean_width" (if tuples > 0. then counter "width" /. tuples else 0.);
  set "trace.spans" (float (List.length !Trace.spans));
  set "trace.cores" (float (Domain.recommended_domain_count ()));
  Trace.write spans_out;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) out []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "metric %s %.17g\n" k v)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | [ "refs-serve"; db; dir ] -> refs_serve db dir
  | [ "check-compile"; db; out; seed; k ] ->
      check_compile db out (int_of_string seed) (int_of_string k)
  | [ "check-query"; dir; manifest ] -> check_query dir manifest
  | [ "serve-load"; socket; seconds; seed; refdir; out ] ->
      serve_load socket (float_of_string seconds) (int_of_string seed) refdir out
  | [ "trace"; workload; dir; seed; spans ] ->
      trace workload dir (int_of_string seed) spans
  | _ ->
      prerr_endline
        "usage: pqbench (gen WORKLOAD SEED DIR | refs-serve DB DIR | \
         check-compile DB OUT SEED K | check-query DIR MANIFEST | serve-load \
         SOCKET SECONDS SEED REFDIR OUT | trace WORKLOAD DIR SEED SPANS)";
      exit 2
