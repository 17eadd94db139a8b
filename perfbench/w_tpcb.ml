(* tpcb: the paper's TPC-B in the TDB-S configuration on a file-backed
   store with a real fsync of the log and the counter file on every
   durable commit. Sim_disk stays wrapped around both for the modelled
   column. Idle maintenance runs between rounds of 500 transactions. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
open Tdb_tpcb

let id_ix () : (Workload.record, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (r : Workload.record) -> r.Workload.id) ~unique:true
    ~impl:Indexer.Hash ()

let hid_ix () : (Workload.history, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (h : Workload.history) -> h.Workload.h_id) ~unique:false
    ~impl:Indexer.List ()

type tables = {
  accounts : Workload.record Cstore.collection;
  tellers : Workload.record Cstore.collection;
  branches : Workload.record Cstore.collection;
  history : Workload.history Cstore.collection;
}

let create_tables ct =
  {
    accounts = Cstore.create_collection ct ~name:"account" ~schema:Workload.account_cls (id_ix ());
    tellers = Cstore.create_collection ct ~name:"teller" ~schema:Workload.teller_cls (id_ix ());
    branches = Cstore.create_collection ct ~name:"branch" ~schema:Workload.branch_cls (id_ix ());
    history = Cstore.create_collection ct ~name:"history" ~schema:Workload.history_cls (hid_ix ());
  }

let open_tables ct =
  let rec_ix = [ Indexer.Generic (id_ix ()) ] in
  {
    accounts = Cstore.open_collection ~indexers:rec_ix ct ~name:"account" ~schema:Workload.account_cls;
    tellers = Cstore.open_collection ~indexers:rec_ix ct ~name:"teller" ~schema:Workload.teller_cls;
    branches = Cstore.open_collection ~indexers:rec_ix ct ~name:"branch" ~schema:Workload.branch_cls;
    history =
      Cstore.open_collection ~indexers:[ Indexer.Generic (hid_ix ()) ] ct ~name:"history"
        ~schema:Workload.history_cls;
  }

(* Bulk load in nondurable batches, then checkpoint, as the TPC-B driver
   does. *)
let load os (tb : tables) (scale : Workload.scale) =
  let fill coll n =
    let batch = 2_000 in
    let loaded = ref 0 in
    while !loaded < n do
      let upto = min n (!loaded + batch) in
      Cstore.with_ctxn ~durable:false os (fun ct ->
          for id = !loaded to upto - 1 do
            ignore (Cstore.insert ct coll (Workload.make_record ~id ~balance:0))
          done);
      loaded := upto
    done
  in
  fill tb.accounts scale.Workload.accounts;
  fill tb.tellers scale.Workload.tellers;
  fill tb.branches scale.Workload.branches

(* The money model: every committed transaction adds its delta to one
   account, one teller and one branch, and appends one history row. *)
type model = { mutable delta_sum : int; mutable committed : int; drop_first : bool }

let record_delta (m : model) (delta : int) =
  if not (m.drop_first && m.committed = 0) then m.delta_sum <- m.delta_sum + delta;
  m.committed <- m.committed + 1

let sum_balances ct coll =
  let it = Cstore.scan ct coll (id_ix ()) in
  let s = ref 0 and n = ref 0 in
  while not (Cstore.at_end it) do
    s := !s + (Cstore.read it).Workload.balance;
    incr n;
    Cstore.advance it
  done;
  Cstore.close it;
  (!s, !n)

let count_history ct coll =
  let it = Cstore.scan ct coll (hid_ix ()) in
  let n = ref 0 in
  while not (Cstore.at_end it) do
    incr n;
    Cstore.advance it
  done;
  Cstore.close it;
  !n

(* Conservation of money plus the history row count, against the model. *)
let money_checks ~(label : string) os (tb : tables) (m : model) : Inst.check list =
  Cstore.with_ctxn ~durable:false os (fun ct ->
      let table name coll =
        let s, _ = sum_balances ct coll in
        Inst.check
          (Printf.sprintf "%s %s sum" label name)
          (Int.equal s m.delta_sum)
          (Printf.sprintf "sum %d, model %d" s m.delta_sum)
      in
      let h = count_history ct tb.history in
      [
        table "account" tb.accounts;
        table "teller" tb.tellers;
        table "branch" tb.branches;
        Inst.check
          (Printf.sprintf "%s history rows" label)
          (Int.equal h m.committed)
          (Printf.sprintf "rows %d, committed %d" h m.committed);
      ])

let update ct coll id delta =
  Probe.time Probe.collection_update (fun () ->
      let it = Cstore.exact ct coll (id_ix ()) id in
      if Cstore.at_end it then begin
        Cstore.close it;
        failwith (Printf.sprintf "tpcb: missing record %d" id)
      end;
      let r = Cstore.write it in
      r.Workload.balance <- r.Workload.balance + delta;
      Cstore.advance it;
      Cstore.close it);
  Probe.work.results <- Probe.work.results + 1;
  Probe.work.rows <- Probe.work.rows + 1;
  Probe.work.user_read <- Probe.work.user_read + Workload.record_size

(* One TPC-B transaction through the collection store, each public call
   timed: three read-modify-write updates, one history insert, one
   durable commit. *)
let txn os (tb : tables) (m : model) (input : Workload.txn_input) =
  let ct = Cstore.begin_ os in
  match
    update ct tb.accounts input.Workload.account input.Workload.delta;
    update ct tb.tellers input.Workload.teller input.Workload.delta;
    update ct tb.branches input.Workload.branch input.Workload.delta;
    let h = Workload.make_history ~h_id:m.committed ~input in
    ignore (Probe.time Probe.collection_insert (fun () -> Cstore.insert ct tb.history h));
    Probe.time Probe.objstore_commit (fun () -> Cstore.commit ~durable:true ct)
  with
  | () ->
      record_delta m input.Workload.delta;
      Probe.work.user_written <- Probe.work.user_written + (4 * Workload.record_size)
  | exception e ->
      (try Cstore.abort ct with _ -> ());
      raise e

let scale ~tiny = if tiny then Workload.quick_scale else Workload.default_scale

(* Tdb_driver.setup's configuration: Triple-XTEA + SHA-1, 60% maximum
   utilization, the workload cache split 3:1 between the chunk and the
   object cache, checkpoints on the residual-byte trigger. *)
let config (scale : Workload.scale) =
  {
    Config.default with
    Config.security = true;
    max_utilization = 0.6;
    checkpoint_every = 100_000;
    checkpoint_residual_bytes = max (384 * 1024) scale.Workload.cache_bytes;
    chunk_cache_bytes = scale.Workload.cache_bytes * 3 / 4;
    cipher = Config.Triple_xtea;
    hash = Config.Sha1;
    shards = 1;
  }

let object_config (scale : Workload.scale) =
  { Object_store.default_config with Object_store.cache_budget = scale.Workload.cache_bytes / 4; locking = false }

let secret () = Secret_store.of_seed "perfbench-tpcb"

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let setup ~tiny ~seed ~fault ~dir : Inst.t =
  let scale = scale ~tiny in
  let config = config scale in
  Unix.mkdir dir 0o700;
  let db_path = Filename.concat dir "db" and ctr_path = Filename.concat dir "counter" in
  let clock = Sim_disk.clock () in
  let model = Sim_disk.paper_platform in
  let raw = Untrusted_store.open_file db_path in
  let store = Probe.timed_store (Sim_disk.wrap_store model clock raw) in
  let counter = Probe.timed_counter (Sim_disk.wrap_counter model clock (One_way_counter.open_file ctr_path)) in
  let cs = Shard_store.create ~config ~secret:(secret ()) ~counters:[| counter |] [| store |] in
  let os = Object_store.of_shard_store ~config:(object_config scale) cs in
  let tb = Cstore.with_ctxn ~durable:false os create_tables in
  load os tb scale;
  Shard_store.checkpoint cs;
  let m = { delta_sum = 0; committed = 0; drop_first = fault } in
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-tpcb-%d" seed) in
  let finish () =
    let live = money_checks ~label:"live" os tb m in
    (* drop the open image without a clean close, then recover from the
       files: every acknowledged durable commit must be there *)
    Untrusted_store.close raw;
    let raw2 = Untrusted_store.open_file db_path in
    let t0 = Probe.now_ns () in
    let cs2 =
      Shard_store.open_existing ~config ~secret:(secret ()) ~counters:[| One_way_counter.open_file ctr_path |]
        [| raw2 |]
    in
    let reopen_ms = float_of_int (Probe.now_ns () - t0) /. 1e6 in
    let os2 = Object_store.of_shard_store ~config:(object_config scale) cs2 in
    let tb2 = Cstore.with_ctxn ~durable:false os2 open_tables in
    let reopened = money_checks ~label:"reopened" os2 tb2 m in
    Untrusted_store.close raw2;
    remove_dir dir;
    (live @ reopened, reopen_ms)
  in
  {
    Inst.op = (fun () -> txn os tb m (Workload.gen_txn rng scale));
    round = 500;
    idle = Some (fun () -> Shard_store.clean ~max_segments:16 cs);
    warm_cycle = true;
    cs;
    stores = [| raw |];
    clock;
    os = Some os;
    server_stats = None;
    config =
      Inst.config_of config ~object_cache:(object_config scale).Object_store.cache_budget
        ~flush:"file-backed; fsync of log and counter file on every commit (all durable)";
    finish;
  }
