(** Exact rational arithmetic over {!Bigint}.

    Probabilities of possible worlds are products and sums of tuple weights
    such as 2/3 and 1/4; representing them exactly lets the test suite and the
    benchmark harness measure Monte-Carlo approximation error against a true
    value rather than against another float. *)

type t

(** {1 Constructors} *)

val zero : t
val one : t
val half : t

val of_int : int -> t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is [num/den] in lowest terms with positive denominator.
    @raise Division_by_zero when [den] is zero. *)

val of_ints : int -> int -> t
(** [of_ints n d] = [make (of_int n) (of_int d)]. *)

val of_string : string -> t
(** Parses ["n"], ["n/d"] or a decimal literal ["1.25"], ["-0.5"].  Only
    the integer part of a decimal may carry a sign.
    @raise Invalid_argument on malformed text, e.g. ["1.-5"]. *)

val of_float : float -> t
(** Exact conversion of a finite float (binary expansion).
    @raise Invalid_argument on NaN or infinities. *)

(** {1 Observers} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
val to_float : t -> float
val to_string : t -> string
(** Lowest-terms rendering ["num/den"], or just ["num"] for integers. *)

val pp : Format.formatter -> t -> unit
val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val pow : t -> int -> t
(** [pow x n]; negative [n] inverts ([x] must be nonzero then). *)

val min : t -> t -> t
val max : t -> t -> t

val sum : t list -> t
val product : t list -> t

(** {1 Probability helpers} *)

val is_proper_probability : t -> bool
(** [0 <= x <= 1]. *)

val complement : t -> t
(** [1 - x]. *)

(** {1 Infix aliases} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
