open Pqdb_urel

(* Quadratic-pass guard: subsumption is O(n² · clause length); above this
   size we keep possibly-redundant clauses rather than stall compilation. *)
let subsumption_cap = 512

let drop_subsumed clauses =
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  if n <= 1 || n > subsumption_cap then clauses
  else begin
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      if keep.(i) then
        for j = 0 to n - 1 do
          if j <> i && keep.(j) && Assignment.subsumes arr.(i) arr.(j) then
            keep.(j) <- false
        done
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if keep.(i) then out := arr.(i) :: !out
    done;
    !out
  end

let normalize clauses =
  let clauses = List.sort_uniq Assignment.compare clauses in
  if List.exists Assignment.is_empty clauses then [ Assignment.empty ]
  else drop_subsumed clauses
