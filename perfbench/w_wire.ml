(* wire_tpcb: TPC-B over the loopback Server/Client RPC path with group
   commit on, one client connection, Net_driver's 1,000-account scale.
   The store is in memory with Sim_disk-modelled I/O. The server, and the
   store it owns, live in a domain of their own, so session threads never
   wait on the client's runtime lock. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
open Tdb_server
open Tdb_tpcb

let scale ~tiny = if tiny then { Net_driver.net_scale with Workload.accounts = 200 } else Net_driver.net_scale

(* Net_driver's configuration: the shipped defaults with security on and
   checkpoints left to the residual-byte trigger. *)
let config = { Config.default with Config.security = true; checkpoint_every = 1_000_000; shards = 1 }

let object_config (scale : Workload.scale) =
  { Object_store.cache_budget = scale.Workload.cache_bytes; locking = true; lock_timeout = 0.25 }

let secret () = Secret_store.of_seed "perfbench-wire"

(* Idle maintenance must run in the domain that owns the store (the chunk
   cache belongs to its creating domain): a thread there runs each
   requested pass under the object store's state mutex. *)
type maintenance = {
  m_mu : Mutex.t;
  m_cv : Condition.t;
  mutable requested : int;
  mutable finished : int;
  mutable quit : bool;
  mutable failure : exn option;  (** a pass that raised; re-raised to the requester *)
}

let maintain os (mt : maintenance) () =
  Mutex.lock mt.m_mu;
  while not mt.quit do
    if mt.finished < mt.requested then begin
      Mutex.unlock mt.m_mu;
      let outcome = try Ok (Object_store.with_store os (fun cs -> Shard_store.clean ~max_segments:16 cs)) with e -> Error e in
      Mutex.lock mt.m_mu;
      (match outcome with Ok () -> () | Error e -> mt.failure <- Some e);
      mt.finished <- mt.finished + 1;
      Condition.broadcast mt.m_cv
    end
    else Condition.wait mt.m_cv mt.m_mu
  done;
  Mutex.unlock mt.m_mu

let request (mt : maintenance) ~quit =
  Mutex.lock mt.m_mu;
  if quit then mt.quit <- true else mt.requested <- mt.requested + 1;
  Condition.broadcast mt.m_cv;
  while (not mt.quit) && mt.finished < mt.requested do
    Condition.wait mt.m_cv mt.m_mu
  done;
  let failure = mt.failure in
  mt.failure <- None;
  Mutex.unlock mt.m_mu;
  Option.iter raise failure

type served = {
  srv : Server.t;
  cs : Shard_store.t;
  os : Object_store.t;
  handle : Untrusted_store.Mem.handle;
  raw : Untrusted_store.t;
  raw_counter : One_way_counter.t;
  clock : Sim_disk.clock;
}

(* Runs in the server domain: build and load the store, start the server. *)
let build (scale : Workload.scale) (mt : maintenance) =
  let clock = Sim_disk.clock () in
  let handle, raw = Untrusted_store.open_mem () in
  let _, raw_counter = One_way_counter.open_mem () in
  let store = Probe.timed_store (Sim_disk.wrap_store Sim_disk.paper_platform clock raw) in
  let counter = Probe.timed_counter (Sim_disk.wrap_counter Sim_disk.paper_platform clock raw_counter) in
  let cs = Shard_store.create ~config ~secret:(secret ()) ~counters:[| counter |] [| store |] in
  let os = Object_store.of_shard_store ~config:(object_config scale) cs in
  let tb = Cstore.with_ctxn ~durable:false os W_tpcb.create_tables in
  W_tpcb.load os tb scale;
  Shard_store.checkpoint cs;
  Shard_store.durable_barrier cs;
  let srv =
    Server.create ~config:{ Server.default_config with Server.group_commit = true } os
      (Server.Tcp ("127.0.0.1", 0))
  in
  let add (r : Workload.record) rd = r.Workload.balance <- r.Workload.balance + Tdb_pickle.Pickle.read_int rd in
  List.iter
    (fun (name, schema) ->
      Server.expose_collection srv ~name ~schema
        ~indexers:[ Indexer.Generic (W_tpcb.id_ix ()) ]
        ~mutations:[ ("add", add) ] ())
    [ ("account", Workload.account_cls); ("teller", Workload.teller_cls); ("branch", Workload.branch_cls) ];
  Server.expose_collection srv ~name:"history" ~schema:Workload.history_cls
    ~indexers:[ Indexer.Generic (W_tpcb.hid_ix ()) ]
    ();
  let maintainer = Thread.create (maintain os mt) () in
  ({ srv; cs; os; handle; raw; raw_counter; clock }, maintainer)

(* The server domain's body: hand the built store (or the exception that
   stopped the build) to the client domain, then serve until stopped. *)
let serve scale mt (ready : (served * Thread.t, exn) result option ref) mu cv () =
  let built = try Ok (build scale mt) with e -> Error e in
  Mutex.lock mu;
  ready := Some built;
  Condition.signal cv;
  Mutex.unlock mu;
  match built with
  | Ok (s, maintainer) ->
      Server.serve s.srv;
      Thread.join maintainer
  | Error _ -> ()

let rpc f =
  Probe.work.rpcs <- Probe.work.rpcs + 1;
  Probe.time Probe.rpc f

(* One TPC-B transaction: begin, three server-side "add" mutations, one
   history insert, one durable commit — six round trips. *)
let txn c (m : W_tpcb.model) (input : Workload.txn_input) =
  let add coll cls id =
    ignore
      (rpc (fun () ->
           Client.coll_mutate c ~coll ~index:"id" ~mutation:"add" Gkey.int id cls ~arg:(fun w ->
               Tdb_pickle.Pickle.int w input.Workload.delta)));
    Probe.work.user_read <- Probe.work.user_read + Workload.record_size
  in
  rpc (fun () -> Client.begin_ c);
  match
    add "account" Workload.account_cls input.Workload.account;
    add "teller" Workload.teller_cls input.Workload.teller;
    add "branch" Workload.branch_cls input.Workload.branch;
    ignore
      (rpc (fun () ->
           Client.coll_insert c ~coll:"history" Workload.history_cls (Workload.make_history ~h_id:m.W_tpcb.committed ~input)));
    rpc (fun () -> Client.commit ~durable:true c)
  with
  | () ->
      W_tpcb.record_delta m input.Workload.delta;
      Probe.work.user_written <- Probe.work.user_written + (4 * Workload.record_size)
  | exception e ->
      (try Client.abort c with _ -> ());
      raise e

let remote_checks c (m : W_tpcb.model) : Inst.check list =
  Client.with_txn ~durable:false c (fun () ->
      let table coll cls =
        let s =
          List.fold_left
            (fun acc (_, r) -> acc + r.Workload.balance)
            0
            (Client.coll_scan c ~coll ~index:"id" Gkey.int cls)
        in
        Inst.check ("remote " ^ coll ^ " sum") (Int.equal s m.W_tpcb.delta_sum)
          (Printf.sprintf "sum %d, model %d" s m.W_tpcb.delta_sum)
      in
      let h = Client.coll_size c ~coll:"history" in
      [
        table "account" Workload.account_cls;
        table "teller" Workload.teller_cls;
        table "branch" Workload.branch_cls;
        Inst.check "remote history rows" (Int.equal h m.W_tpcb.committed)
          (Printf.sprintf "rows %d, committed %d" h m.W_tpcb.committed);
      ])

let setup ~tiny ~seed ~fault ~dir:_ : Inst.t =
  let scale = scale ~tiny in
  let ready = ref None and mu = Mutex.create () and cv = Condition.create () in
  let mt =
    { m_mu = Mutex.create (); m_cv = Condition.create (); requested = 0; finished = 0; quit = false; failure = None }
  in
  let dom = Domain.spawn (serve scale mt ready mu cv) in
  Mutex.lock mu;
  while Option.is_none !ready do
    Condition.wait cv mu
  done;
  let built = Option.get !ready in
  Mutex.unlock mu;
  let s =
    match built with
    | Ok (s, _) -> s
    | Error e ->
        Domain.join dom;
        raise e
  in
  let c = Client.connect (Server.Tcp ("127.0.0.1", Server.port s.srv)) in
  let port = Server.port s.srv in
  let shutdown () =
    Client.close c;
    request mt ~quit:true;
    Server.stop s.srv;
    (* closing the listener does not wake a thread blocked in accept on
       Linux; one more connection does, and the loop then sees the stop *)
    (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | fd ->
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with Unix.Unix_error _ -> ());
        Unix.close fd
    | exception Unix.Unix_error _ -> ());
    Domain.join dom
  in
  let m = { W_tpcb.delta_sum = 0; committed = 0; drop_first = fault } in
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-wire-%d" seed) in
  let finish () =
    let remote = remote_checks c m in
    shutdown ();
    (* acknowledged commits went through a group-commit barrier: a crash
       losing every unsynced write must keep all of them *)
    Untrusted_store.Mem.crash_hard s.handle;
    let t0 = Probe.now_ns () in
    let cs2 = Shard_store.open_existing ~config ~secret:(secret ()) ~counters:[| s.raw_counter |] [| s.raw |] in
    let reopen_ms = float_of_int (Probe.now_ns () - t0) /. 1e6 in
    let os2 = Object_store.of_shard_store ~config:(object_config scale) cs2 in
    let tb2 = Cstore.with_ctxn ~durable:false os2 W_tpcb.open_tables in
    (remote @ W_tpcb.money_checks ~label:"reopened" os2 tb2 m, reopen_ms)
  in
  {
    Inst.op = (fun () -> txn c m (Workload.gen_txn rng scale));
    round = 500;
    idle = Some (fun () -> request mt ~quit:false);
    warm_cycle = true;
    cs = s.cs;
    stores = [| s.raw |];
    clock = s.clock;
    os = Some s.os;
    server_stats =
      Some
        (fun () ->
          let st = Client.stats c in
          (st.Proto.s_gc_batches, st.Proto.s_gc_coalesced));
    config =
      Inst.config_of config ~object_cache:(object_config scale).Object_store.cache_budget
        ~flush:"in memory; every commit durable through group commit, one client";
    finish;
  }
