(* The designs every workload draws from: the nine built-in kernels
   plus GEMM and the systolic array at n = 4, 8 and 16.  The kernel
   [gemm] is GEMM at n = 16 and [systolic] is the systolic array at
   n = 8, so the catalogue holds 13 distinct designs. *)

open Hir_ir
open Hir_dialect
module K = Hir_kernels
module Harness = Hir_rtl.Harness

(* One simulation input with its software-model answer. *)
type stimulus = {
  inputs : Harness.input list;
  expected : Bitvec.t array;
  valid : int -> bool;  (* output indices the reference defines *)
  out_arg : int;  (* position of the output among the memref arguments *)
}

type t = {
  name : string;
  kernel : string option;  (* the built-in kernel name, if it is one *)
  build : unit -> Ir.op * Ir.op;
  stimulus : (int -> stimulus) option;
      (* from a seed; only where the kernel's reference covers the size *)
}

let all_valid _ = true
let one_in ~expected ?(valid = all_valid) input =
  { inputs = [ Harness.Tensor input; Harness.Out_tensor ]; expected; valid; out_arg = 1 }

let two_in ~expected a b =
  {
    inputs = [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ];
    expected;
    valid = all_valid;
    out_arg = 2;
  }

let in_range (lo, hi) i = i >= lo && i <= hi

let kernel ?stimulus name =
  let k = Option.get (K.Kernels.find name) in
  { name; kernel = Some name; build = k.K.Kernels.build; stimulus }

let catalogue =
  [
    kernel "transpose" ~stimulus:(fun seed ->
        let x = K.Transpose.make_input ~seed in
        one_in ~expected:(K.Transpose.reference x) x);
    kernel "stencil_1d" ~stimulus:(fun seed ->
        let x = K.Stencil1d.make_input ~seed in
        one_in ~expected:(K.Stencil1d.reference x) ~valid:(in_range K.Stencil1d.valid_range) x);
    kernel "histogram" ~stimulus:(fun seed ->
        let x = K.Histogram.make_input ~seed in
        one_in ~expected:(K.Histogram.reference x) x);
    kernel "convolution" ~stimulus:(fun seed ->
        let x = K.Convolution.make_input ~seed in
        one_in ~expected:(K.Convolution.reference x) ~valid:K.Convolution.is_valid_index x);
    kernel "fifo" ~stimulus:(fun seed ->
        let x = K.Fifo.make_input ~seed in
        one_in ~expected:(K.Fifo.reference x) x);
    kernel "elementwise_max" ~stimulus:(fun seed ->
        let a, b = K.Elementwise_max.make_inputs ~seed in
        two_in ~expected:(K.Elementwise_max.reference a b) a b);
    kernel "task_parallel" ~stimulus:(fun seed ->
        let x = K.Taskparallel.make_input ~seed in
        one_in ~expected:(K.Taskparallel.reference x)
          ~valid:(in_range K.Taskparallel.valid_range) x);
    { name = "gemm4"; kernel = None; build = (fun () -> K.Gemm.build ~n:4 ()); stimulus = None };
    { name = "gemm8"; kernel = None; build = (fun () -> K.Gemm.build ~n:8 ()); stimulus = None };
    {
      (kernel "gemm" ~stimulus:(fun seed ->
           let a, b = K.Gemm.make_inputs ~seed in
           two_in ~expected:(K.Gemm.reference a b) a b))
      with
      name = "gemm16";
    };
    {
      name = "systolic4";
      kernel = None;
      build = (fun () -> K.Systolic.build ~n:4 ());
      stimulus = None;
    };
    { (kernel "systolic") with name = "systolic8" };
    {
      name = "systolic16";
      kernel = None;
      build = (fun () -> K.Systolic.build ~n:16 ());
      stimulus =
        Some
          (fun seed ->
            let a, b = K.Systolic.make_inputs ~n:16 ~seed () in
            two_in ~expected:(K.Systolic.reference ~n:16 a b) a b);
    };
  ]

let find name = List.find (fun d -> d.name = name) catalogue

(* The design as HIR text, printed from its builder under a fresh id
   counter — the same bytes a builder job prints for its cache key. *)
let text d = Ir.with_isolated_ids (fun () -> Printer.op_to_string (fst (d.build ())))

let top_name d = Ir.with_isolated_ids (fun () -> Ops.func_name (snd (d.build ())))

let pipeline = Hir_driver.Pipeline.default ~optimize:true
