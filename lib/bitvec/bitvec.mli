(** Arbitrary-width two's-complement bit vectors.

    This is the value domain shared by the HIR interpreter and the RTL
    simulator.  A value is a bit string of a fixed, explicit [width]
    (>= 1); arithmetic wraps modulo [2^width], as hardware does.

    Values are immutable.  The representation keeps all bits above
    [width] cleared, so structural equality coincides with value
    equality. *)

type t

(** {1 Construction} *)

val width : t -> int

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. *)

val one : int -> t
(** [one w] is the value 1 at width [w]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w] (i.e. -1 signed). *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates the two's-complement representation of
    [n] to [width] bits.  Negative [n] sign-extends first. *)

val of_int64 : width:int -> int64 -> t

val of_bool : bool -> t
(** Width-1 vector. *)

val of_bin_string : string -> t
(** [of_bin_string "0101"] has width 4, value 5.  Underscores are
    ignored.  Raises [Invalid_argument] on empty or non-binary input. *)

val of_hex_string : width:int -> string -> t

(** {1 Observation} *)

val to_int : t -> int
(** Unsigned value.  Raises [Failure] if it does not fit in a
    non-negative OCaml [int]. *)

val to_signed_int : t -> int
(** Two's-complement signed value.  Raises [Failure] if out of range. *)

val to_int_trunc : t -> int
(** Low 63 bits as a native [int] (modulo [2^63]); never raises.  For
    [width v <= 63] this is exact: it is the masked-int representation
    used by the RTL simulator's unboxed fast path, where bit 62 lands
    on the OCaml sign bit (so width-63 values may read as negative). *)

val to_int_opt : t -> int option
(** [Some] of the unsigned value when it fits a non-negative OCaml
    [int]; [None] otherwise.  Non-raising [to_int]. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (0 = LSB).  Out-of-range indices read as 0. *)

val msb : t -> bool

val is_zero : t -> bool

val popcount : t -> int

val min_width : t -> int
(** Bits needed to represent the unsigned value (>= 1). *)

val equal : t -> t -> bool
(** Value-and-width equality. *)

val compare : t -> t -> int
(** Unsigned comparison; widths may differ. *)

val compare_signed : t -> t -> int
(** Signed comparison at each operand's own width. *)

val hash : t -> int

(** {1 Arithmetic — operands must have equal widths} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Result width = operand width (low half of the full product). *)

val mul_full : t -> t -> t
(** Result width = sum of operand widths (exact product). *)

val udiv : t -> t -> t
(** Unsigned division.  Division by zero yields all-ones (hardware
    convention; also what Verilog 'x would synthesize to in our model). *)

val urem : t -> t -> t
(** Unsigned remainder.  Remainder by zero yields the dividend. *)

(** {1 Bitwise — operands must have equal widths} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t

(** {1 Width changes and structure} *)

val extract : hi:int -> lo:int -> t -> t
(** Inclusive bit range; requires [0 <= lo <= hi < width]. *)

val concat : t -> t -> t
(** [concat hi lo]: [hi] occupies the high bits. *)

val zero_extend : width:int -> t -> t
val sign_extend : width:int -> t -> t

val truncate : width:int -> t -> t
(** Keep the low [width] bits; requires [width <= width v]. *)

val resize : width:int -> t -> t
(** Zero-extend or truncate as needed. *)

val resize_signed : width:int -> t -> t
(** Sign-extend or truncate as needed. *)

(** {1 Printing} *)

val to_bin_string : t -> string
val to_hex_string : t -> string
val to_string : t -> string
(** Decimal (unsigned). *)

val to_signed_string : t -> string

val pp : Format.formatter -> t -> unit
(** Verilog-style, e.g. [8'd42]. *)
