(* Shared helpers for the benchmark kernels. *)

let bv32 n = Bitvec.of_int ~width:32 n

(* Deterministic pseudo-random input data (xorshift), so tests and
   benches are reproducible without Random state. *)
let test_data ~seed ~n ~width =
  let state = ref (seed * 2654435761 + 1) in
  Array.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x;
      Bitvec.of_int ~width (x land 0x3FFFFFFF))
