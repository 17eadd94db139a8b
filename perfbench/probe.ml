(* Measurement primitives shared by every workload: the monotonic clock,
   span accumulators around the public calls the benchmark makes, work
   counters the workloads bump, and timing wrappers interposed on the
   platform records (untrusted store, one-way counter) handed to the
   store. Spans cost one branch while tracing is off, so the untraced
   and traced runs execute the same code. *)

open Tdb_platform

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Tracing is switched on only for the traced rounds of a [--trace 1] run. *)
let tracing = ref false

type span = { mutable calls : int; mutable ns : int }

let span () = { calls = 0; ns = 0 }

let time (sp : span) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        sp.calls <- sp.calls + 1;
        sp.ns <- sp.ns + (now_ns () - t0))
      f
  end

let mean_ms (sp : span) : float =
  if sp.calls = 0 then 0.0 else float_of_int sp.ns /. float_of_int sp.calls /. 1e6

(* One span per public call site timed from outside. *)
let collection_update = span ()
let collection_insert = span ()
let collection_range = span ()
let objstore_commit = span ()
let chunk_read = span ()
let chunk_commit = span ()
let platform_sync = span ()
let counter_increment = span ()
let rpc = span ()

(* Work counters, bumped on every op whether or not tracing is on. *)
type work = {
  mutable user_read : int;  (** user bytes returned by reads *)
  mutable user_written : int;  (** user bytes committed *)
  mutable results : int;  (** collection queries answered *)
  mutable rows : int;  (** rows those queries returned *)
  mutable rpcs : int;  (** client round trips *)
}

let work = { user_read = 0; user_written = 0; results = 0; rows = 0; rpcs = 0 }

(* Interposed on the record the store is built over; stats stay shared
   with the wrapped store, so byte and call counts read the same. *)
let timed_store (s : Untrusted_store.t) : Untrusted_store.t =
  { s with Untrusted_store.sync = (fun () -> time platform_sync s.Untrusted_store.sync) }

let timed_counter (c : One_way_counter.t) : One_way_counter.t =
  {
    One_way_counter.read = c.One_way_counter.read;
    increment = (fun () -> time counter_increment c.One_way_counter.increment);
  }

(* Growable buffer of per-op latencies in nanoseconds. *)
type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 65536 0; n = 0 }

let add (s : samples) (v : int) : unit =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted (s : samples) : int array =
  let a = Array.sub s.a 0 s.n in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of sorted nanosecond samples, in ms. *)
let percentile_ms (a : int array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (k - 1))) /. 1e6
