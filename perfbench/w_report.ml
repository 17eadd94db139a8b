(* report: read-only DRM usage reports. A usage collection of 100-byte
   records with a B-tree index on (meter, period), at least ten times the
   cache budget; each op is one read-only transaction summing one
   uniformly chosen meter's periods through a range query. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
open Tdb_tpcb

type usage = { meter : int; period : int; count : int; filler : string }

(* meter (4) + period (4) + count (8) + filler with its length byte = 100 *)
let filler_len = Workload.record_size - 4 - 4 - 8 - 1

let usage_cls : usage Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"perfbench.usage"
    ~pickle:(fun w u ->
      P.int32_fixed w u.meter;
      P.int32_fixed w u.period;
      P.int64 w (Int64.of_int u.count);
      P.string w u.filler)
    ~unpickle:(fun ~version:_ r ->
      let meter = P.read_int32_fixed r in
      let period = P.read_int32_fixed r in
      let count = Int64.to_int (P.read_int64 r) in
      let filler = P.read_string r in
      { meter; period; count; filler })
    ()

let key_ix () : (usage, int * int) Indexer.t =
  Indexer.make ~name:"meter_period" ~key:(Gkey.pair Gkey.int Gkey.int)
    ~extract:(fun u -> (u.meter, u.period))
    ~unique:true ~impl:Indexer.Btree ()

let periods = 12

(* meters x periods records against the cache budget: 24,000 records,
   a 7.3 MB store (4.4 MB live) over a 256 KB budget *)
let meters ~tiny = if tiny then 200 else 2_000
let cache_bytes ~tiny = if tiny then 24 * 1024 else 256 * 1024

(* The TPC-B bench's cipher class and cache split; the default
   utilization and checkpoint triggers. *)
let config ~tiny =
  {
    Config.default with
    Config.security = true;
    chunk_cache_bytes = cache_bytes ~tiny * 3 / 4;
    cipher = Config.Triple_xtea;
    hash = Config.Sha1;
    shards = 1;
  }

let object_config ~tiny =
  { Object_store.default_config with Object_store.cache_budget = cache_bytes ~tiny / 4; locking = false }

let secret () = Secret_store.of_seed "perfbench-report"

let open_usage ct =
  Cstore.open_collection ~indexers:[ Indexer.Generic (key_ix ()) ] ct ~name:"usage" ~schema:usage_cls

(* Sum one meter's periods; returns (sum, rows). *)
let report ct coll m =
  Probe.time Probe.collection_range (fun () ->
      let it = Cstore.range ct coll (key_ix ()) ~min:(Some (m, 0)) ~max:(Some (m, periods - 1)) in
      let sum = ref 0 and rows = ref 0 in
      while not (Cstore.at_end it) do
        sum := !sum + (Cstore.read it).count;
        incr rows;
        Cstore.advance it
      done;
      Cstore.close it;
      (!sum, !rows))

let setup ~tiny ~seed ~fault ~dir:_ : Inst.t =
  let config = config ~tiny in
  let clock = Sim_disk.clock () in
  let handle, raw = Untrusted_store.open_mem () in
  let _, raw_counter = One_way_counter.open_mem () in
  let store = Probe.timed_store (Sim_disk.wrap_store Sim_disk.paper_platform clock raw) in
  let counter = Probe.timed_counter (Sim_disk.wrap_counter Sim_disk.paper_platform clock raw_counter) in
  let cs = Shard_store.create ~config ~secret:(secret ()) ~counters:[| counter |] [| store |] in
  let os = Object_store.of_shard_store ~config:(object_config ~tiny) cs in
  let coll = Cstore.with_ctxn ~durable:false os (fun ct -> Cstore.create_collection ct ~name:"usage" ~schema:usage_cls (key_ix ())) in
  let n = meters ~tiny in
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-report-%d" seed) in
  (* the model, computed while loading: each meter's total use *)
  let model = Array.make n 0 in
  let filler = String.make filler_len '\x2a' in
  (* period-major, as usage arrives: one meter's rows sit in twelve
     different places in the log *)
  (* a load transaction's write set stays within half the object cache:
     with larger write sets, B-tree inserts lose rows (see NOTES.md) *)
  let batch = max 1 ((object_config ~tiny).Object_store.cache_budget / (2 * Workload.record_size)) in
  for period = 0 to periods - 1 do
    let m = ref 0 in
    while !m < n do
      let upto = min n (!m + batch) in
      Cstore.with_ctxn ~durable:false os (fun ct ->
          for meter = !m to upto - 1 do
            let count = Tdb_crypto.Drbg.int rng 1_000 in
            model.(meter) <- model.(meter) + count;
            ignore (Cstore.insert ct coll { meter; period; count; filler })
          done);
      m := upto
    done
  done;
  if fault then model.(0) <- model.(0) - 1;
  Shard_store.checkpoint cs;
  Shard_store.durable_barrier cs;
  let wrong = ref 0 and first = ref "" in
  let verify m (sum, rows) =
    if not (Int.equal sum model.(m) && Int.equal rows periods) then begin
      if !wrong = 0 then first := Printf.sprintf "; meter %d sums %d over %d rows, model %d" m sum rows model.(m);
      incr wrong
    end
  in
  let op () =
    let m = Tdb_crypto.Drbg.int rng n in
    let ct = Cstore.begin_ os in
    (match report ct coll m with
    | r ->
        Probe.time Probe.objstore_commit (fun () -> Cstore.commit ~durable:false ct);
        verify m r;
        Probe.work.results <- Probe.work.results + 1;
        Probe.work.rows <- Probe.work.rows + snd r;
        Probe.work.user_read <- Probe.work.user_read + (snd r * Workload.record_size)
    | exception e ->
        (try Cstore.abort ct with _ -> ());
        raise e)
  in
  let finish () =
    let online =
      Inst.check "every report equals the load-time model" (!wrong = 0)
        (Printf.sprintf "%d wrong reports%s" !wrong !first)
    in
    Untrusted_store.Mem.crash_hard handle;
    let t0 = Probe.now_ns () in
    let cs2 = Shard_store.open_existing ~config ~secret:(secret ()) ~counters:[| raw_counter |] [| raw |] in
    let reopen_ms = float_of_int (Probe.now_ns () - t0) /. 1e6 in
    let os2 = Object_store.of_shard_store ~config:(object_config ~tiny) cs2 in
    wrong := 0;
    first := "";
    Cstore.with_ctxn ~durable:false os2 (fun ct ->
        let coll2 = open_usage ct in
        for m = 0 to n - 1 do
          verify m (report ct coll2 m)
        done);
    ( [
        online;
        Inst.check "reopened image reports every meter's model sum" (!wrong = 0)
          (Printf.sprintf "%d of %d meters wrong%s" !wrong n !first);
      ],
      reopen_ms )
  in
  {
    Inst.op;
    round = 100;
    idle = None;
    warm_cycle = false;
    cs;
    stores = [| raw |];
    clock;
    os = Some os;
    server_stats = None;
    config =
      Inst.config_of config ~object_cache:(object_config ~tiny).Object_store.cache_budget
        ~flush:"in memory; read-only transactions, nothing to flush";
    finish;
  }
