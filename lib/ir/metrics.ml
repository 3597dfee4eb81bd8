(* The metrics registry: named int counters and log-bucket latency
   histograms in one table, the only place a count lives.

   Every owner keeps one table: the pass running now (a domain-local
   scope that rewriters and [record] write into), each compile job's
   trace, the cache, and the server.  Reports render a snapshot of the
   tables ([counters], [summary]): `--stats`, [Pass_end.counters], the
   Chrome trace, `/metrics` and the bench JSON.

   A table is used from one domain unless created [~shared:true]; a
   shared table (the cache's, bumped by every worker domain) takes its
   lock around each lookup, insert and increment. *)

(* Fixed log-scale buckets (≈30% resolution) from 10µs up: constant
   memory, and good enough for p50/p90/p99 over a server lifetime
   without retaining per-job samples. *)
module Histogram = struct
  let buckets = 80
  let lo = 1e-5
  let ratio = 1.3
  let log_ratio = Float.log ratio

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable max : float;
  }

  let create () = { counts = Array.make buckets 0; n = 0; sum = 0.; max = 0. }

  let bucket_of v =
    if v <= lo then 0
    else min (buckets - 1) (1 + int_of_float (Float.log (v /. lo) /. log_ratio))

  (* Upper bound of a bucket: the value reported for percentiles. *)
  let bound i = lo *. (ratio ** float_of_int i)

  let record t v =
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v > t.max then t.max <- v

  type summary = {
    count : int;
    mean : float;
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;
  }

  let summarize t =
    let n = t.n in
    let percentile q =
      if n = 0 then 0.
      else begin
        let target = int_of_float (Float.ceil (q *. float_of_int n)) in
        let target = max 1 (min n target) in
        let rec go i acc =
          if i >= buckets then t.max
          else
            let acc = acc + t.counts.(i) in
            if acc >= target then Float.min (bound i) t.max else go (i + 1) acc
        in
        go 0 0
      end
    in
    {
      count = n;
      mean = (if n = 0 then 0. else t.sum /. float_of_int n);
      p50 = percentile 0.50;
      p90 = percentile 0.90;
      p99 = percentile 0.99;
      max = t.max;
    }
end

type t = {
  lock : Mutex.t option;  (* [Some] for a table shared across domains *)
  counters : (string, int ref) Hashtbl.t;
  mutable histograms : (string * Histogram.t) list;  (* the server has two; most tables none *)
}

let create ?(shared = false) () =
  {
    lock = (if shared then Some (Mutex.create ()) else None);
    counters = Hashtbl.create 16;
    histograms = [];
  }

let locked t f = match t.lock with None -> f () | Some mu -> Mutex.protect mu f

let incr ?(by = 1) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add t.counters name (ref by))

let get t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

(* The counters named [prefix ^ k], as [(k, n)] sorted by [k]. *)
let counters ?(prefix = "") t =
  let plen = String.length prefix in
  locked t (fun () ->
      Hashtbl.fold
        (fun k r acc ->
          if String.starts_with ~prefix k then
            (String.sub k plen (String.length k - plen), !r) :: acc
          else acc)
        t.counters [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Add every counter of [src] into [into], each name prefixed. *)
let merge ?(prefix = "") ~into src =
  List.iter (fun (k, n) -> incr ~by:n into (prefix ^ k)) (counters src)

let observe t name v =
  locked t (fun () ->
      let h =
        match List.assoc_opt name t.histograms with
        | Some h -> h
        | None ->
          let h = Histogram.create () in
          t.histograms <- (name, h) :: t.histograms;
          h
      in
      Histogram.record h v)

let summary t name =
  locked t (fun () ->
      Histogram.summarize
        (match List.assoc_opt name t.histograms with
        | Some h -> h
        | None -> Histogram.create ()))

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)

(* Domain-local stack of scope tables: the pass manager opens one
   around each pass, `hirc sim` one around a simulation.  [record]
   adds to the innermost and is a no-op outside any scope, so passes
   and simulations stay runnable standalone.  Domain-local because
   compile jobs run concurrently on domains. *)
let scopes : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let scope () = match !(Domain.DLS.get scopes) with t :: _ -> Some t | [] -> None

let record ?(n = 1) name = match scope () with Some t -> incr ~by:n t name | None -> ()

(* Run [f] in a fresh scope; returns its result and the scope's
   counters. *)
let with_scope f =
  let stack = Domain.DLS.get scopes in
  let t = create () in
  stack := t :: !stack;
  let pop () = match !stack with _ :: rest -> stack := rest | [] -> () in
  match f () with
  | v ->
    pop ();
    (v, counters t)
  | exception e ->
    pop ();
    raise e
