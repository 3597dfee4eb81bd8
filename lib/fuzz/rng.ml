(* Deterministic pseudo-random numbers for the fuzzer (splitmix64).

   The fuzzer's contract is that [hirc fuzz N --seed S] replays the
   exact same inputs on every machine and every OCaml release, so we
   cannot use [Stdlib.Random] (its algorithm and its default state
   handling have changed across versions).  Splitmix64 is tiny, fast,
   and fully specified by its constants. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, bound).  The modulo bias is irrelevant for fuzzing. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let choose t arr = arr.(int t (Array.length arr))
