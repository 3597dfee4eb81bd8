(* Unit and property tests for the Bitvec value domain. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bv w n = Bitvec.of_int ~width:w n

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let test_construction () =
  check_int "width" 8 (Bitvec.width (bv 8 5));
  check_int "value" 5 (Bitvec.to_int (bv 8 5));
  check_int "zero" 0 (Bitvec.to_int (Bitvec.zero 16));
  check_int "one" 1 (Bitvec.to_int (Bitvec.one 16));
  check_int "ones 4" 15 (Bitvec.to_int (Bitvec.ones 4));
  check_int "truncation" 1 (Bitvec.to_int (bv 4 17));
  check_int "negative wraps" 255 (Bitvec.to_int (bv 8 (-1)));
  check_int "of_bool true" 1 (Bitvec.to_int (Bitvec.of_bool true))

let test_wide_values () =
  (* Widths above 64 exercise the multi-chunk paths. *)
  let v = Bitvec.shift_left (Bitvec.one 100) 80 in
  check_int "bit 80" 1 (if Bitvec.bit v 80 then 1 else 0);
  check_int "min_width" 81 (Bitvec.min_width v);
  let v2 = Bitvec.add v v in
  check_bool "shift vs add" true (Bitvec.equal v2 (Bitvec.shift_left (Bitvec.one 100) 81));
  let m = Bitvec.mul_full (Bitvec.ones 64) (Bitvec.ones 64) in
  check_int "mul_full width" 128 (Bitvec.width m);
  (* (2^64-1)^2 = 2^128 - 2^65 + 1 *)
  check_bool "mul_full bit 0" true (Bitvec.bit m 0);
  check_bool "mul_full bit 64" false (Bitvec.bit m 64);
  check_bool "mul_full bit 127" true (Bitvec.bit m 127)

let test_arith () =
  check_int "add" 12 (Bitvec.to_int (Bitvec.add (bv 8 5) (bv 8 7)));
  check_int "add wraps" 4 (Bitvec.to_int (Bitvec.add (bv 8 250) (bv 8 10)));
  check_int "sub" 3 (Bitvec.to_int (Bitvec.sub (bv 8 10) (bv 8 7)));
  check_int "sub wraps" 254 (Bitvec.to_int (Bitvec.sub (bv 8 4) (bv 8 6)));
  check_int "neg" 251 (Bitvec.to_int (Bitvec.neg (bv 8 5)));
  check_int "mul" 56 (Bitvec.to_int (Bitvec.mul (bv 8 7) (bv 8 8)));
  check_int "mul wraps" 144 (Bitvec.to_int (Bitvec.mul (bv 8 20) (bv 8 20)));
  check_int "udiv" 6 (Bitvec.to_int (Bitvec.udiv (bv 8 20) (bv 8 3)));
  check_int "urem" 2 (Bitvec.to_int (Bitvec.urem (bv 8 20) (bv 8 3)));
  check_int "div by zero = ones" 255 (Bitvec.to_int (Bitvec.udiv (bv 8 20) (bv 8 0)))

let test_signed () =
  check_int "to_signed -1" (-1) (Bitvec.to_signed_int (Bitvec.ones 8));
  check_int "to_signed 127" 127 (Bitvec.to_signed_int (bv 8 127));
  check_int "to_signed -128" (-128) (Bitvec.to_signed_int (bv 8 128));
  check_bool "compare_signed" true (Bitvec.compare_signed (bv 8 (-1)) (bv 8 1) < 0);
  check_bool "compare unsigned" true (Bitvec.compare (bv 8 (-1)) (bv 8 1) > 0)

let test_bitwise () =
  check_int "and" 0b1000 (Bitvec.to_int (Bitvec.logand (bv 4 0b1100) (bv 4 0b1010)));
  check_int "or" 0b1110 (Bitvec.to_int (Bitvec.logor (bv 4 0b1100) (bv 4 0b1010)));
  check_int "xor" 0b0110 (Bitvec.to_int (Bitvec.logxor (bv 4 0b1100) (bv 4 0b1010)));
  check_int "not" 0b0011 (Bitvec.to_int (Bitvec.lognot (bv 4 0b1100)));
  check_int "shl" 0b1000 (Bitvec.to_int (Bitvec.shift_left (bv 4 0b0001) 3));
  check_int "shrl" 0b0001 (Bitvec.to_int (Bitvec.shift_right_logical (bv 4 0b1000) 3));
  check_int "shra sign fill" 0b1111
    (Bitvec.to_int (Bitvec.shift_right_arith (bv 4 0b1000) 3));
  check_int "shra positive" 0b0001
    (Bitvec.to_int (Bitvec.shift_right_arith (bv 4 0b0100) 2))

let test_structure () =
  check_int "extract" 0b10 (Bitvec.to_int (Bitvec.extract ~hi:2 ~lo:1 (bv 4 0b0101)));
  check_int "extract full" 5 (Bitvec.to_int (Bitvec.extract ~hi:3 ~lo:0 (bv 4 5)));
  check_int "concat" 0b1011 (Bitvec.to_int (Bitvec.concat (bv 2 0b10) (bv 2 0b11)));
  check_int "concat width" 4 (Bitvec.width (Bitvec.concat (bv 2 0) (bv 2 0)));
  check_int "zext" 5 (Bitvec.to_int (Bitvec.zero_extend ~width:32 (bv 4 5)));
  check_int "sext neg" (-3) (Bitvec.to_signed_int (Bitvec.sign_extend ~width:32 (bv 4 13)));
  check_int "trunc" 1 (Bitvec.to_int (Bitvec.truncate ~width:2 (bv 8 5)));
  check_int "popcount" 3 (Bitvec.popcount (bv 8 0b10101000))

let test_strings () =
  check_string "bin" "0101" (Bitvec.to_bin_string (bv 4 5));
  check_string "hex" "ff" (Bitvec.to_hex_string (bv 8 255));
  check_string "hex padded" "0f" (Bitvec.to_hex_string (bv 8 15));
  check_string "decimal" "42" (Bitvec.to_string (bv 16 42));
  check_string "signed decimal" "-1" (Bitvec.to_signed_string (Bitvec.ones 8));
  check_int "of_bin" 5 (Bitvec.to_int (Bitvec.of_bin_string "0101"));
  check_int "of_bin width" 4 (Bitvec.width (Bitvec.of_bin_string "0101"));
  check_int "of_hex" 0xbeef (Bitvec.to_int (Bitvec.of_hex_string ~width:16 "beef"));
  (* Decimal printing of a >62-bit value goes through long division. *)
  check_string "wide decimal" "18446744073709551616"
    (Bitvec.to_string (Bitvec.shift_left (Bitvec.one 80) 64))

let test_errors () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitvec: width must be >= 1")
    (fun () -> ignore (Bitvec.zero 0));
  (try
     ignore (Bitvec.add (bv 4 1) (bv 8 1));
     Alcotest.fail "expected width mismatch"
   with Invalid_argument _ -> ());
  (try
     ignore (Bitvec.extract ~hi:8 ~lo:0 (bv 4 1));
     Alcotest.fail "expected range error"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let arb_width = QCheck.Gen.oneofl [ 1; 3; 8; 16; 31; 32; 33; 63; 64; 65; 100; 128 ]

(* A random value of a width drawn from [widths]: int64 pieces joined
   by repeated concat. *)
let gen_bv widths =
  QCheck.Gen.(
    widths >>= fun w ->
    let rec build remaining acc =
      if remaining <= 0 then QCheck.Gen.return acc
      else
        QCheck.Gen.(
          int64 >>= fun n ->
          let piece = Bitvec.of_int64 ~width:(min 64 remaining) n in
          build (remaining - 64) (match acc with
            | None -> Some piece
            | Some acc -> Some (Bitvec.concat piece acc)))
    in
    build w None >>= fun v -> QCheck.Gen.return (Option.get v))

let arb_bv : Bitvec.t QCheck.arbitrary =
  QCheck.make ~print:(fun v ->
      Printf.sprintf "%d'h%s" (Bitvec.width v) (Bitvec.to_hex_string v))
    (gen_bv arb_width)

(* Any width from 1 to 200, and often one at a chunk boundary. *)
let arb_any_width_bv : Bitvec.t QCheck.arbitrary =
  QCheck.make ~print:(fun v ->
      Printf.sprintf "%d'b%s" (Bitvec.width v) (Bitvec.to_bin_string v))
    (gen_bv QCheck.Gen.(oneof [ int_range 1 200; oneofl [ 63; 64; 65; 128 ] ]))

(* Hex digits by definition: digit k is bits [4k+3:4k], cut to the
   width, read through [extract]. *)
let hex_by_extract v =
  let w = Bitvec.width v in
  let ndigits = (w + 3) / 4 in
  String.init ndigits (fun i ->
      let lo = (ndigits - 1 - i) * 4 in
      let hi = min (lo + 3) (w - 1) in
      "0123456789abcdef".[Bitvec.to_int (Bitvec.extract ~hi ~lo v)])

let pair_same_width =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)" (Bitvec.to_hex_string a) (Bitvec.to_hex_string b))
    QCheck.Gen.(
      arb_width >>= fun w ->
      let g = QCheck.gen arb_bv in
      g >>= fun a ->
      g >>= fun b ->
      QCheck.Gen.return (Bitvec.resize ~width:w a, Bitvec.resize ~width:w b))

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let properties =
  [
    prop "add commutative" pair_same_width (fun (a, b) ->
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    prop "mul commutative" pair_same_width (fun (a, b) ->
        Bitvec.equal (Bitvec.mul a b) (Bitvec.mul b a));
    prop "add then sub round-trips" pair_same_width (fun (a, b) ->
        Bitvec.equal a (Bitvec.sub (Bitvec.add a b) b));
    prop "neg is sub from zero" arb_bv (fun a ->
        Bitvec.equal (Bitvec.neg a) (Bitvec.sub (Bitvec.zero (Bitvec.width a)) a));
    prop "not involutive" arb_bv (fun a -> Bitvec.equal a (Bitvec.lognot (Bitvec.lognot a)));
    prop "xor self is zero" arb_bv (fun a ->
        Bitvec.is_zero (Bitvec.logxor a a));
    prop "divmod reconstructs" pair_same_width (fun (a, b) ->
        QCheck.assume (not (Bitvec.is_zero b));
        let q = Bitvec.udiv a b and r = Bitvec.urem a b in
        Bitvec.equal a (Bitvec.add (Bitvec.mul q b) r)
        && Bitvec.compare r b < 0);
    prop "shift left then right" arb_bv (fun a ->
        let w = Bitvec.width a in
        let k = w / 2 in
        let masked = Bitvec.shift_right_logical (Bitvec.shift_left a k) k in
        (* The top k bits are lost; compare the surviving low bits. *)
        if w - k >= 1 then
          Bitvec.equal
            (Bitvec.truncate ~width:(w - k) masked)
            (Bitvec.truncate ~width:(w - k) a)
        else true);
    prop "bin string round-trips" arb_bv (fun a ->
        Bitvec.equal a (Bitvec.of_bin_string (Bitvec.to_bin_string a)));
    prop "hex digits match extract" arb_any_width_bv (fun a ->
        Bitvec.to_hex_string a = hex_by_extract a);
    prop "hex string round-trips" arb_bv (fun a ->
        Bitvec.equal a (Bitvec.of_hex_string ~width:(Bitvec.width a) (Bitvec.to_hex_string a)));
    prop "concat then extract" pair_same_width (fun (a, b) ->
        let w = Bitvec.width a in
        let c = Bitvec.concat a b in
        Bitvec.equal a (Bitvec.extract ~hi:((2 * w) - 1) ~lo:w c)
        && Bitvec.equal b (Bitvec.extract ~hi:(w - 1) ~lo:0 c));
    prop "mul_full agrees with mul on low bits" pair_same_width (fun (a, b) ->
        let w = Bitvec.width a in
        Bitvec.equal (Bitvec.mul a b) (Bitvec.truncate ~width:w (Bitvec.mul_full a b)));
    prop "unsigned compare total order vs to_string" pair_same_width (fun (a, b) ->
        let c = Bitvec.compare a b in
        if c = 0 then Bitvec.equal a b || Bitvec.to_string a = Bitvec.to_string b
        else true);
    prop "sign extend preserves signed value" arb_bv (fun a ->
        QCheck.assume (Bitvec.width a <= 60);
        let w = Bitvec.width a + 4 in
        Bitvec.to_signed_int (Bitvec.sign_extend ~width:w a) = Bitvec.to_signed_int a);
    prop "popcount of concat adds" pair_same_width (fun (a, b) ->
        Bitvec.popcount (Bitvec.concat a b) = Bitvec.popcount a + Bitvec.popcount b);
  ]

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "wide values" `Quick test_wide_values;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "signed" `Quick test_signed;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ("properties", properties);
    ]
