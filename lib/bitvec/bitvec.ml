(* Arbitrary-width bit vectors on little-endian int64 chunks.

   Invariant: [chunks] has exactly [nchunks w] elements and every bit at
   position >= w is zero.  All constructors re-establish the invariant
   via [norm]. *)

type t = { w : int; chunks : int64 array }

let nchunks w = (w + 63) / 64

let check_width w = if w < 1 then invalid_arg "Bitvec: width must be >= 1"

(* Mask for the last (partial) chunk of a width-w vector. *)
let top_mask w =
  let r = w land 63 in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let norm w chunks =
  let n = nchunks w in
  let last = n - 1 in
  chunks.(last) <- Int64.logand chunks.(last) (top_mask w);
  { w; chunks }

let width v = v.w

let zero w =
  check_width w;
  { w; chunks = Array.make (nchunks w) 0L }

let make_chunks w = Array.make (nchunks w) 0L

let of_int64 ~width:w n =
  check_width w;
  let chunks = make_chunks w in
  chunks.(0) <- n;
  (* Sign-extend a negative value across the remaining chunks. *)
  if Int64.compare n 0L < 0 then
    for i = 1 to Array.length chunks - 1 do
      chunks.(i) <- -1L
    done;
  norm w chunks

let of_int ~width n = of_int64 ~width (Int64.of_int n)
let one w = of_int ~width:w 1

let ones w =
  check_width w;
  let chunks = Array.make (nchunks w) (-1L) in
  norm w chunks

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let bit v i =
  if i < 0 then invalid_arg "Bitvec.bit: negative index"
  else if i >= v.w then false
  else
    let c = v.chunks.(i lsr 6) in
    Int64.logand (Int64.shift_right_logical c (i land 63)) 1L = 1L

let msb v = bit v (v.w - 1)

let is_zero v = Array.for_all (fun c -> c = 0L) v.chunks

let popcount v =
  let count_chunk c =
    let n = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical c i) 1L = 1L then incr n
    done;
    !n
  in
  Array.fold_left (fun acc c -> acc + count_chunk c) 0 v.chunks

let min_width v =
  let rec hi_chunk i = if i < 0 then None else if v.chunks.(i) <> 0L then Some i else hi_chunk (i - 1) in
  match hi_chunk (Array.length v.chunks - 1) with
  | None -> 1
  | Some i ->
    let c = v.chunks.(i) in
    let rec top b = if Int64.shift_right_logical c b <> 0L then b + 1 else top (b - 1) in
    (i * 64) + top 63

let equal a b = a.w = b.w && Array.for_all2 Int64.equal a.chunks b.chunks

(* Unsigned chunk comparison: flip the sign bit so that Int64.compare
   orders chunks as unsigned values. *)
let ucmp_chunk a b = Int64.unsigned_compare a b

let compare a b =
  (* Unsigned value comparison, width-agnostic: compare from the high
     chunks down, treating missing chunks as zero. *)
  let na = Array.length a.chunks and nb = Array.length b.chunks in
  let n = max na nb in
  let rec go i =
    if i < 0 then 0
    else
      let ca = if i < na then a.chunks.(i) else 0L in
      let cb = if i < nb then b.chunks.(i) else 0L in
      let c = ucmp_chunk ca cb in
      if c <> 0 then c else go (i - 1)
  in
  go (n - 1)

let hash v = Hashtbl.hash (v.w, v.chunks)

let to_int v =
  if min_width v > 62 then failwith "Bitvec.to_int: value too large"
  else Int64.to_int v.chunks.(0)

(* Low 63 bits as a native int (Int64.to_int truncates modulo 2^63);
   exact for width <= 63 — the masked-int representation of the RTL
   simulator's unboxed fast path. *)
let to_int_trunc v = Int64.to_int v.chunks.(0)

let to_int_opt v = if min_width v > 62 then None else Some (Int64.to_int v.chunks.(0))

let same_width name a b =
  if a.w <> b.w then
    invalid_arg (Printf.sprintf "Bitvec.%s: width mismatch (%d vs %d)" name a.w b.w)

let lognot v =
  let chunks = Array.map Int64.lognot v.chunks in
  norm v.w chunks

let map2 name f a b =
  same_width name a b;
  norm a.w (Array.map2 f a.chunks b.chunks)

let logand a b = map2 "logand" Int64.logand a b
let logor a b = map2 "logor" Int64.logor a b
let logxor a b = map2 "logxor" Int64.logxor a b

let add a b =
  same_width "add" a b;
  let n = Array.length a.chunks in
  let out = Array.make n 0L in
  let carry = ref 0L in
  for i = 0 to n - 1 do
    let s = Int64.add a.chunks.(i) b.chunks.(i) in
    let s' = Int64.add s !carry in
    (* Carry-out detection for unsigned 64-bit addition. *)
    let c1 = if Int64.unsigned_compare s a.chunks.(i) < 0 then 1L else 0L in
    let c2 = if Int64.unsigned_compare s' s < 0 then 1L else 0L in
    out.(i) <- s';
    carry := Int64.add c1 c2
  done;
  norm a.w out

let neg v = add (lognot v) (one v.w)

let sub a b =
  same_width "sub" a b;
  add a (neg b)

let zero_extend ~width:w v =
  check_width w;
  if w < v.w then invalid_arg "Bitvec.zero_extend: target narrower than source";
  let chunks = make_chunks w in
  Array.blit v.chunks 0 chunks 0 (Array.length v.chunks);
  norm w chunks

let sign_extend ~width:w v =
  check_width w;
  if w < v.w then invalid_arg "Bitvec.sign_extend: target narrower than source";
  if not (msb v) then zero_extend ~width:w v
  else begin
    let chunks = Array.make (nchunks w) (-1L) in
    Array.blit v.chunks 0 chunks 0 (Array.length v.chunks);
    (* Set the sign bits within the source's top chunk. *)
    let top = Array.length v.chunks - 1 in
    chunks.(top) <- Int64.logor v.chunks.(top) (Int64.lognot (top_mask v.w));
    norm w chunks
  end

let truncate ~width:w v =
  check_width w;
  if w > v.w then invalid_arg "Bitvec.truncate: target wider than source";
  let chunks = Array.sub v.chunks 0 (nchunks w) in
  norm w chunks

let resize ~width:w v = if w >= v.w then zero_extend ~width:w v else truncate ~width:w v

let resize_signed ~width:w v =
  if w >= v.w then sign_extend ~width:w v else truncate ~width:w v

let to_signed_int v =
  if msb v then
    let m = neg v in
    if min_width m > 62 then failwith "Bitvec.to_signed_int: value out of range"
    else -Int64.to_int m.chunks.(0)
  else to_int v

let compare_signed a b =
  match (msb a, msb b) with
  | true, false -> -1
  | false, true -> 1
  | false, false -> compare a b
  | true, true ->
    (* Both negative: wider magnitude sign-extension keeps ordering if we
       compare at a common width. *)
    let w = max a.w b.w in
    compare (sign_extend ~width:w a) (sign_extend ~width:w b)

let shift_left v k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  if k >= v.w then zero v.w
  else begin
    let n = Array.length v.chunks in
    let out = Array.make n 0L in
    let cs = k lsr 6 and bs = k land 63 in
    for i = n - 1 downto 0 do
      let lo = if i - cs >= 0 then v.chunks.(i - cs) else 0L in
      let hi = if bs > 0 && i - cs - 1 >= 0 then v.chunks.(i - cs - 1) else 0L in
      out.(i) <-
        (if bs = 0 then lo
         else Int64.logor (Int64.shift_left lo bs) (Int64.shift_right_logical hi (64 - bs)))
    done;
    norm v.w out
  end

let shift_right_logical v k =
  if k < 0 then invalid_arg "Bitvec.shift_right_logical: negative shift";
  if k >= v.w then zero v.w
  else begin
    let n = Array.length v.chunks in
    let out = Array.make n 0L in
    let cs = k lsr 6 and bs = k land 63 in
    for i = 0 to n - 1 do
      let lo = if i + cs < n then v.chunks.(i + cs) else 0L in
      let hi = if bs > 0 && i + cs + 1 < n then v.chunks.(i + cs + 1) else 0L in
      out.(i) <-
        (if bs = 0 then lo
         else Int64.logor (Int64.shift_right_logical lo bs) (Int64.shift_left hi (64 - bs)))
    done;
    norm v.w out
  end

let shift_right_arith v k =
  if k < 0 then invalid_arg "Bitvec.shift_right_arith: negative shift";
  let k = min k v.w in
  let shifted = if k = v.w then zero v.w else shift_right_logical v k in
  if not (msb v) || k = 0 then shifted
  else begin
    (* Fill the vacated top k bits with ones. *)
    let fill = shift_left (ones v.w) (v.w - k) in
    logor shifted fill
  end

let extract ~hi ~lo v =
  if lo < 0 || hi < lo || hi >= v.w then
    invalid_arg
      (Printf.sprintf "Bitvec.extract: bad range [%d:%d] of width %d" hi lo v.w);
  truncate ~width:(hi - lo + 1) (shift_right_logical v lo)

let concat hi lo =
  let w = hi.w + lo.w in
  logor (shift_left (zero_extend ~width:w hi) lo.w) (zero_extend ~width:w lo)

let mul_full a b =
  let w = a.w + b.w in
  (* Schoolbook multiplication over 32-bit half-chunks to keep partial
     products inside 64 bits. *)
  let halves v =
    let n = Array.length v.chunks in
    Array.init (2 * n) (fun i ->
        let c = v.chunks.(i lsr 1) in
        if i land 1 = 0 then Int64.logand c 0xFFFFFFFFL
        else Int64.shift_right_logical c 32)
  in
  let ha = halves a and hb = halves b in
  let nh = nchunks w * 2 in
  let acc = Array.make (nh + 1) 0L in
  Array.iteri
    (fun i ai ->
      if ai <> 0L then
        Array.iteri
          (fun j bj ->
            let k = i + j in
            if k < nh then begin
              let p = Int64.mul ai bj in
              (* Add p into acc at half-position k with carry ripple. *)
              let rec add_at k v =
                if k <= nh && v <> 0L then begin
                  let s = Int64.add acc.(k) (Int64.logand v 0xFFFFFFFFL) in
                  acc.(k) <- Int64.logand s 0xFFFFFFFFL;
                  add_at (k + 1)
                    (Int64.add (Int64.shift_right_logical v 32)
                       (Int64.shift_right_logical s 32))
                end
              in
              add_at k p
            end)
          hb)
    ha;
  let chunks = make_chunks w in
  for i = 0 to Array.length chunks - 1 do
    let lo = if 2 * i < Array.length acc then acc.(2 * i) else 0L in
    let hi = if (2 * i) + 1 < Array.length acc then acc.((2 * i) + 1) else 0L in
    chunks.(i) <- Int64.logor lo (Int64.shift_left hi 32)
  done;
  norm w chunks

let mul a b =
  same_width "mul" a b;
  truncate ~width:a.w (mul_full a b)

(* Long division: restoring division bit by bit.  Slow but simple and
   only used by simulator division, which is rare in the kernels. *)
let divmod a b =
  same_width "divmod" a b;
  if is_zero b then (ones a.w, a)
  else begin
    let w = a.w in
    let q = ref (zero w) and r = ref (zero w) in
    for i = w - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := logor !r (one w);
      if compare !r b >= 0 then begin
        r := sub !r b;
        q := logor !q (shift_left (one w) i)
      end
    done;
    (!q, !r)
  end

let udiv a b = fst (divmod a b)
let urem a b = snd (divmod a b)

let of_bin_string s =
  let bits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  if bits = [] then invalid_arg "Bitvec.of_bin_string: empty";
  let w = List.length bits in
  let v = ref (zero w) in
  List.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> v := logor !v (shift_left (one w) (w - 1 - i))
      | _ -> invalid_arg "Bitvec.of_bin_string: non-binary digit")
    bits;
  !v

let of_hex_string ~width:w s =
  check_width w;
  let v = ref (zero w) in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> invalid_arg "Bitvec.of_hex_string: non-hex digit"
        in
        v := logor (shift_left !v 4) (of_int ~width:w d)
      end)
    s;
  !v

let to_bin_string v =
  String.init v.w (fun i -> if bit v (v.w - 1 - i) then '1' else '0')

let to_hex_string v =
  let ndigits = (v.w + 3) / 4 in
  String.init ndigits (fun i ->
      let lo = (ndigits - 1 - i) * 4 in
      let hi = min (lo + 3) (v.w - 1) in
      let d = to_int (extract ~hi ~lo v) in
      "0123456789abcdef".[d])

let to_string v =
  (* Decimal via repeated division by 10^9. *)
  if min_width v <= 62 then string_of_int (to_int v)
  else begin
    let base = of_int ~width:v.w 1_000_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else
        let q, r = divmod v base in
        let part = string_of_int (to_int r) in
        let part =
          if is_zero q then part
          else String.make (9 - String.length part) '0' ^ part
        in
        go q (part :: acc)
    in
    match go v [] with [] -> "0" | parts -> String.concat "" parts
  end

let to_signed_string v =
  if msb v then "-" ^ to_string (neg v) else to_string v

let pp fmt v = Format.fprintf fmt "%d'd%s" v.w (to_string v)
