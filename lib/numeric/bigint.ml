(* Signed arbitrary-precision integers: native ints below 2^60, sign-magnitude
   base-2^30 limbs above.

   Representation invariants:
   - [Small n] iff |n| < 2^60, i.e. iff the magnitude fits two limbs.  Every
     value has exactly this one form, so structural equality is value
     equality and [Big] magnitudes always span at least three limbs;
   - in [Big { sign; mag }], [mag] is little-endian, each limb in [0, 2^30),
     with no trailing zero limb, and [sign] is -1 or 1.

   Two-[Small] sums stay below 2^61 and products of operands below 2^30
   below 2^60, so native ints never overflow; limb products fit too:
   2^30 * 2^30 + carries < 2^62. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1
let small_bound = 1 lsl 60

type t = Small of int | Big of { sign : int; mag : int array }

let fits n = n < small_bound && n > -small_bound
let zero = Small 0
let one = Small 1
let minus_one = Small (-1)

(* Trim a magnitude and pick the canonical form: up to two limbs is
   [Small]. *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  match top n with
  | 0 -> zero
  | 1 -> Small (sign * mag.(0))
  | 2 -> Small (sign * (mag.(0) lor (mag.(1) lsl base_bits)))
  | k -> Big { sign; mag = (if k = n then mag else Array.sub mag 0 k) }

(* Limbs of a native int of any size, [min_int] included: accumulate on the
   negative side, where every native int has a representable value. *)
let of_int n =
  if fits n then Small n
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec limbs acc m =
      if m = 0 then acc else limbs (-(m mod base) :: acc) (m / base)
    in
    let m = if n < 0 then n else -n in
    normalize sign (Array.of_list (List.rev (limbs [] m)))
  end

(* The sign and magnitude of either form; [Small] magnitudes are below 2^60,
   so negation cannot overflow. *)
let sign = function Small n -> Int.compare n 0 | Big b -> b.sign

let mag = function
  | Big b -> b.mag
  | Small 0 -> [||]
  | Small n ->
      let m = Stdlib.abs n in
      if m < base then [| m |] else [| m land base_mask; m lsr base_bits |]

let is_zero = function Small 0 -> true | _ -> false

(* Compare magnitudes only. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

(* A [Big] lies beyond every [Small], on the side of its sign. *)
let compare x y =
  match (x, y) with
  | Small a, Small b -> Int.compare a b
  | Small _, Big b -> -b.sign
  | Big a, Small _ -> a.sign
  | Big a, Big b ->
      if a.sign <> b.sign then Int.compare a.sign b.sign
      else if a.sign > 0 then cmp_mag a.mag b.mag
      else cmp_mag b.mag a.mag

let equal x y =
  match (x, y) with
  | Small a, Small b -> a = b
  | Big a, Big b -> a.sign = b.sign && cmp_mag a.mag b.mag = 0
  | _ -> false

(* The limb fold [(h * 31) + limb] from [sign + 7], low limb first; a
   [Small] folds its at most two limbs without building them. *)
let hash = function
  | Small 0 -> 7
  | Small n ->
      let m = Stdlib.abs n in
      let h = ((Int.compare n 0 + 7) * 31) + (m land base_mask) in
      (if m < base then h else (h * 31) + (m lsr base_bits)) land max_int
  | Big b ->
      Array.fold_left (fun h limb -> (h * 31) + limb) (b.sign + 7) b.mag
      land max_int

let neg = function
  | Small n -> Small (-n)
  | Big b -> Big { b with sign = -b.sign }

let abs x = if sign x < 0 then neg x else x

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let add x y =
  match (x, y) with
  | Small a, Small b -> of_int (a + b)
  | _ ->
      let sx = sign x and sy = sign y in
      if sx = 0 then y
      else if sy = 0 then x
      else begin
        let mx = mag x and my = mag y in
        if sx = sy then normalize sx (add_mag mx my)
        else
          match cmp_mag mx my with
          | 0 -> zero
          | c when c > 0 -> normalize sx (sub_mag mx my)
          | _ -> normalize sy (sub_mag my mx)
      end

let sub x y =
  match (x, y) with Small a, Small b -> of_int (a - b) | _ -> add x (neg y)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      let t = (ai * b.(j)) + r.(i + j) + !carry in
      r.(i + j) <- t land base_mask;
      carry := t lsr base_bits
    done;
    (* Propagate the final carry, which may itself exceed one limb. *)
    let k = ref (i + lb) in
    while !carry <> 0 do
      let t = r.(!k) + !carry in
      r.(!k) <- t land base_mask;
      carry := t lsr base_bits;
      incr k
    done
  done;
  r

let mul x y =
  match (x, y) with
  | Small a, Small b when a < base && a > -base && b < base && b > -base ->
      Small (a * b)
  | _ ->
      let sx = sign x and sy = sign y in
      if sx = 0 || sy = 0 then zero
      else normalize (sx * sy) (mul_mag (mag x) (mag y))

let bits_of_int v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits = function
  | Small n -> bits_of_int (Stdlib.abs n)
  | Big b ->
      let n = Array.length b.mag in
      ((n - 1) * base_bits) + bits_of_int b.mag.(n - 1)

let bit_at mag i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

(* Short division by a one-limb divisor [d]: one native [/] per limb, each
   partial dividend [r * 2^30 + limb] staying below 2^60. *)
let short_divmod_mag a d =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, [| !r |])

(* Binary long division on magnitudes: O(bits(a) * limbs(b)).  Numbers in
   this codebase stay small (probability numerators of a few hundred bits),
   so the simple algorithm is the right trade-off against Knuth D. *)
let long_divmod_mag a b =
  let nb = num_bits (Big { sign = 1; mag = a }) in
  let q = Array.make (Array.length a) 0 in
  (* Remainder as a mutable little-endian buffer with explicit length. *)
  let r = Array.make (Array.length b + 1) 0 in
  let shift_in_bit bit =
    (* r := r*2 + bit *)
    let carry = ref bit in
    for i = 0 to Array.length r - 1 do
      let t = (r.(i) lsl 1) lor !carry in
      r.(i) <- t land base_mask;
      carry := t lsr base_bits
    done;
    assert (!carry = 0)
  in
  let r_ge_b () =
    let lb = Array.length b in
    let rec go i =
      if i < 0 then true
      else begin
        let ri = if i < Array.length r then r.(i) else 0 in
        let bi = if i < lb then b.(i) else 0 in
        if ri <> bi then ri > bi else go (i - 1)
      end
    in
    go (Array.length r - 1)
  in
  let r_sub_b () =
    let borrow = ref 0 in
    for i = 0 to Array.length r - 1 do
      let bi = if i < Array.length b then b.(i) else 0 in
      let d = r.(i) - bi - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    assert (!borrow = 0)
  in
  for i = nb - 1 downto 0 do
    shift_in_bit (bit_at a i);
    if r_ge_b () then begin
      r_sub_b ();
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
  done;
  (q, r)

(* |a| >= |b| > 0. *)
let divmod_mag a b =
  if Array.length b = 1 then short_divmod_mag a b.(0) else long_divmod_mag a b

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | Small _, Big _ -> (zero, a)
  | _ ->
      let sa = sign a and sb = sign b in
      let ma = mag a and mb = mag b in
      if cmp_mag ma mb < 0 then (zero, a)
      else begin
        let q, r = divmod_mag ma mb in
        (normalize (sa * sb) q, normalize sa r)
      end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let rec gcd a b =
  match (a, b) with
  | Small x, Small y -> Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> if is_zero b then abs a else gcd b (rem a b)

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left"
  else
    match x with
    (* Native while no bit is shifted out: shifting back restores [v]. *)
    | Small v when n < 60 && fits (v lsl n) && (v lsl n) asr n = v ->
        Small (v lsl n)
    | _ when n = 0 || is_zero x -> x
    | _ ->
        let limbs = n / base_bits and off = n mod base_bits in
        let m = mag x in
        let la = Array.length m in
        let r = Array.make (la + limbs + 1) 0 in
        for i = 0 to la - 1 do
          let t = m.(i) lsl off in
          r.(i + limbs) <- r.(i + limbs) lor (t land base_mask);
          r.(i + limbs + 1) <- t lsr base_bits
        done;
        normalize (sign x) r

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right"
  else
    match x with
    | Small v ->
        let m = if n >= 60 then 0 else Stdlib.abs v lsr n in
        Small (if v < 0 then -m else m)
    | Big b ->
        let limbs = n / base_bits and off = n mod base_bits in
        let la = Array.length b.mag in
        if limbs >= la then zero
        else begin
          let lr = la - limbs in
          let r = Array.make lr 0 in
          for i = 0 to lr - 1 do
            let lo = b.mag.(i + limbs) lsr off in
            let hi =
              if off = 0 || i + limbs + 1 >= la then 0
              else (b.mag.(i + limbs + 1) lsl (base_bits - off)) land base_mask
            in
            r.(i) <- lo lor hi
          done;
          normalize b.sign r
        end

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow"
  else begin
    let rec go acc b n =
      if n = 0 then acc
      else begin
        let acc = if n land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (n lsr 1)
      end
    in
    go one x n
  end

let min_int_big = of_int min_int

let to_int_opt = function
  | Small n -> Some n
  | Big b as x ->
      if num_bits x <= 62 then begin
        let v =
          Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) b.mag 0
        in
        Some (if b.sign < 0 then -v else v)
      end
      else if equal x min_int_big then Some min_int
      else None

(* A [Small] has at most two limbs, where the limb fold below rounds once,
   exactly like [float_of_int]. *)
let to_float = function
  | Small n -> float_of_int n
  | Big b ->
      let m =
        Array.fold_right
          (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
          b.mag 0.
      in
      if b.sign < 0 then -.m else m

(* Decimal conversion via repeated division by 10^9 (one limb, so each step
   is a short division). *)
let chunk = 1_000_000_000

let to_string = function
  | Small n -> string_of_int n
  | Big b as x ->
      let buf = Buffer.create 32 in
      let chunks = ref [] in
      let cur = ref (abs x) in
      let big_chunk = Small chunk in
      while not (is_zero !cur) do
        let q, r = divmod !cur big_chunk in
        let r = match r with Small v -> v | Big _ -> assert false in
        chunks := r :: !chunks;
        cur := q
      done;
      if b.sign < 0 then Buffer.add_char buf '-';
      (match !chunks with
      | [] -> assert false
      | first :: rest ->
          Buffer.add_string buf (string_of_int first);
          List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
      Buffer.contents buf

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* Up to 18 digits parse natively (10^18 < 2^60); longer numerals fold in
   9-digit chunks, one short multiply-add per chunk. *)
let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let digits i j =
    let v = ref 0 in
    for k = i to j - 1 do
      let c = s.[k] in
      if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
      v := (!v * 10) + (Char.code c - Char.code '0')
    done;
    !v
  in
  let m =
    if len - start <= 18 then Small (digits start len)
    else begin
      let first = start + ((len - start) mod 9) in
      let acc = ref (Small (digits start first)) in
      let i = ref first in
      while !i < len do
        acc := add (mul !acc (Small chunk)) (Small (digits !i (!i + 9)));
        i := !i + 9
      done;
      !acc
    end
  in
  if neg_sign then neg m else m

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
