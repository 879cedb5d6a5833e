open Pqdb_numeric

(* ------------------------------------------------------------------ *)
(* Brute force: enumerate total assignments of the variables of F.     *)
(* ------------------------------------------------------------------ *)

let by_enumeration w clauses =
  if List.exists Assignment.is_empty clauses then Rational.one
  else begin
    let vars =
      List.sort_uniq compare (List.concat_map Assignment.vars clauses)
    in
    let rec go acc bound = function
      | [] ->
          let lookup v = List.assoc v bound in
          if
            List.exists
              (fun f -> Assignment.extended_by lookup f)
              clauses
          then
            Rational.add acc
              (List.fold_left
                 (fun p (v, x) -> Rational.mul p (Wtable.prob w v x))
                 Rational.one bound)
          else acc
      | v :: rest ->
          let n = Wtable.domain_size w v in
          let rec each acc x =
            if x >= n then acc
            else each (go acc ((v, x) :: bound) rest) (x + 1)
          in
          each acc 0
    in
    if clauses = [] then Rational.zero else go Rational.zero [] vars
  end

(* ------------------------------------------------------------------ *)
(* Shannon expansion with memoisation.                                 *)
(* ------------------------------------------------------------------ *)

(* Key: the residual clause set as a sorted list of binding lists.  A
   structural key under polymorphic hash/equality — no string building and
   no separator ambiguity (the former string key concatenated decimal ids
   with ":"/","/";", paying an allocation-heavy sort-of-strings per node). *)
let canonical clauses =
  List.sort compare (List.map Assignment.bindings clauses)

(* Pick the variable occurring in the most clauses (a standard DPLL-style
   branching heuristic). *)
let pick_var clauses =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun v ->
          Hashtbl.replace counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        (Assignment.vars a))
    clauses;
  Hashtbl.fold
    (fun v c best ->
      match best with
      | Some (_, c') when c' >= c -> best
      | _ -> Some (v, c))
    counts None
  |> Option.map fst

let by_shannon w clauses =
  let memo = Hashtbl.create 64 in
  let rec weight clauses =
    if clauses = [] then Rational.zero
    else if List.exists Assignment.is_empty clauses then Rational.one
    else begin
      let key = canonical clauses in
      match Hashtbl.find_opt memo key with
      | Some p -> p
      | None ->
          let v =
            match pick_var clauses with
            | Some v -> v
            | None -> assert false (* nonempty clauses have variables *)
          in
          let n = Wtable.domain_size w v in
          let p = ref Rational.zero in
          for x = 0 to n - 1 do
            (* Condition on X = x: drop clauses demanding another value,
               remove the X binding from the rest. *)
            let residual =
              List.filter_map
                (fun a ->
                  match Assignment.value a v with
                  | Some y when y <> x -> None
                  | Some _ -> Some (Assignment.remove a v)
                  | None -> Some a)
                clauses
            in
            p :=
              Rational.add !p
                (Rational.mul (Wtable.prob w v x) (weight residual))
          done;
          Hashtbl.add memo key !p;
          !p
    end
  in
  weight clauses

(* Shannon expansion + independence partitioning: clause sets over disjoint
   variables are independent, so P(F1 or F2) = 1 - (1-p1)(1-p2); branch on a
   variable only within a connected component. *)
let by_decomposition w clauses =
  let memo = Hashtbl.create 64 in
  (* Split a clause set into variable-connected components. *)
  let components clauses =
    let clause_arr = Array.of_list clauses in
    let n = Array.length clause_arr in
    let parent = Array.init n Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union_sets i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    let owner = Hashtbl.create 16 in
    Array.iteri
      (fun i clause ->
        List.iter
          (fun v ->
            match Hashtbl.find_opt owner v with
            | Some j -> union_sets i j
            | None -> Hashtbl.add owner v i)
          (Assignment.vars clause))
      clause_arr;
    let buckets = Hashtbl.create 8 in
    Array.iteri
      (fun i clause ->
        let root = find i in
        Hashtbl.replace buckets root
          (clause
          :: Option.value ~default:[] (Hashtbl.find_opt buckets root)))
      clause_arr;
    Hashtbl.fold (fun _ cs acc -> cs :: acc) buckets []
  in
  let rec weight clauses =
    if clauses = [] then Rational.zero
    else if List.exists Assignment.is_empty clauses then Rational.one
    else begin
      let key = canonical clauses in
      match Hashtbl.find_opt memo key with
      | Some p -> p
      | None ->
          let p =
            match components clauses with
            | ([] | [ _ ]) -> shannon_step clauses
            | comps ->
                (* Independent components: 1 - prod(1 - p_i). *)
                Rational.complement
                  (List.fold_left
                     (fun acc comp ->
                       Rational.mul acc (Rational.complement (weight comp)))
                     Rational.one comps)
          in
          Hashtbl.add memo key p;
          p
    end
  and shannon_step clauses =
    let v =
      match pick_var clauses with Some v -> v | None -> assert false
    in
    let n = Wtable.domain_size w v in
    let p = ref Rational.zero in
    for x = 0 to n - 1 do
      let residual =
        List.filter_map
          (fun a ->
            match Assignment.value a v with
            | Some y when y <> x -> None
            | Some _ -> Some (Assignment.remove a v)
            | None -> Some a)
          clauses
      in
      p := Rational.add !p (Rational.mul (Wtable.prob w v x) (weight residual))
    done;
    !p
  in
  weight clauses

let exact = by_shannon

let tuple_confidence w u tuple =
  exact w (Urelation.clauses_for u tuple)

let all_confidences w u =
  List.map
    (fun (t, clauses) -> (t, exact w clauses))
    (Urelation.clauses_by_tuple u)
