(* On-disk content-addressed verdict store.

   Layout: one file per (structural key, fingerprint) pair, named by the
   digest of the pair, in a flat directory. Each file is a line-oriented
   text record closed by an MD5 checksum of everything above it, so a
   truncated or bit-flipped entry is detected on read and degrades to a
   miss. Writers stage the record in a temp file in the same directory and
   [Unix.rename] it into place: readers racing a writer see either the old
   complete entry or the new complete entry, never a prefix.

   The codec is deliberately hand-rolled: this library sits below [aqed]
   (the batch driver threads a store handle through its solves), so it
   cannot use [Report.Json], which lives above. *)

let format_version = 1

let m_writes = Telemetry.Counter.make "store.writes"
let m_invalid = Telemetry.Counter.make "store.invalid"
let m_gc_removed = Telemetry.Counter.make "store.gc_removed"

type t = { store_dir : string }

let dir t = t.store_dir

let open_store path =
  (try Unix.mkdir path 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  { store_dir = path }

type verdict = Bug of Bmc.Trace.t | Clean of int

type cert = Cert_replayed of int | Cert_rup of int

type entry = {
  e_key : string;
  e_fingerprint : string;
  e_check : string;
  e_verdict : verdict;
  e_cert : cert;
  e_frames : int;
  e_aig_nodes : int;
  e_aig_nodes_raw : int;
  e_winner : string;
  e_wall : float;
  e_reduce : Logic.Reduce.stats option;
  e_solver : Sat.Solver.stats;
  e_created_s : float;
}

(* ---- fingerprints ---- *)

let config_fingerprint ~reduce ~sweep ~certify ~solver_label =
  Printf.sprintf "v%d;reduce=%b;sweep=%b;certify=%b;solver=%s" format_version
    reduce sweep certify solver_label

let fingerprint ~config ~check = Printf.sprintf "%s;check=%s" config check

let entry_suffix = ".entry"

let filename ~key ~fingerprint =
  Digest.to_hex (Digest.string (key ^ "\n" ^ fingerprint)) ^ entry_suffix

let path_of t ~key ~fingerprint =
  Filename.concat t.store_dir (filename ~key ~fingerprint)

(* ---- codec ---- *)

(* One bitvector as [<width> <lsb-first 0/1 string>], matching the
   [Bitvec.bit]/[of_bits] convention, so serialization is self-inverse
   without depending on the printer's hex format. *)
let bits_string v =
  String.init (Bitvec.width v) (fun i -> if Bitvec.bit v i then '1' else '0')

let bits_parse w s =
  if String.length s <> w then failwith "store: bit string width mismatch";
  Bitvec.of_bits (List.init w (fun i -> s.[i] = '1'))

let encode (e : entry) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "aqed-store %d" format_version;
  line "key %s" e.e_key;
  line "fp %s" e.e_fingerprint;
  line "check %s" e.e_check;
  (match e.e_verdict with
   | Clean d -> line "verdict clean %d" d
   | Bug t -> line "verdict bug %d" (Bmc.Trace.length t));
  (match e.e_cert with
   | Cert_rup k -> line "cert rup %d" k
   | Cert_replayed c -> line "cert replayed %d" c);
  line "frames %d" e.e_frames;
  line "nodes %d %d" e.e_aig_nodes e.e_aig_nodes_raw;
  line "winner %s" e.e_winner;
  line "wall %.6f" e.e_wall;
  line "created %.3f" e.e_created_s;
  let s = e.e_solver in
  line "solver %d %d %d %d %d %d %d %d %d %d %d %d" s.Sat.Solver.decisions
    s.Sat.Solver.propagations s.Sat.Solver.conflicts s.Sat.Solver.restarts
    s.Sat.Solver.learned s.Sat.Solver.max_var s.Sat.Solver.clauses
    s.Sat.Solver.lbd_core s.Sat.Solver.lbd_mid s.Sat.Solver.lbd_local
    s.Sat.Solver.reductions s.Sat.Solver.vivified;
  (match e.e_reduce with
   | None -> line "reduce none"
   | Some r ->
     line "reduce %d %d %d %d %d %d %d %d %d %d" r.Logic.Reduce.nodes_before
       r.Logic.Reduce.nodes_after r.Logic.Reduce.latches_before
       r.Logic.Reduce.latches_after r.Logic.Reduce.coi_dropped_latches
       r.Logic.Reduce.const_latches r.Logic.Reduce.sweep_classes
       r.Logic.Reduce.sweep_queries r.Logic.Reduce.sweep_merged
       r.Logic.Reduce.sweep_limited);
  (match e.e_verdict with
   | Clean _ -> ()
   | Bug t ->
     line "property %s" t.Bmc.Trace.property;
     List.iter
       (fun (f : Bmc.Trace.frame) ->
         line "f";
         List.iter
           (fun (n, v) -> line "i %d %s %s" (Bitvec.width v) (bits_string v) n)
           f.Bmc.Trace.inputs;
         List.iter
           (fun (n, v) -> line "r %d %s %s" (Bitvec.width v) (bits_string v) n)
           f.Bmc.Trace.regs)
       t.Bmc.Trace.frames);
  line "end";
  let body = Buffer.contents b in
  body ^ Printf.sprintf "md5 %s\n" (Digest.to_hex (Digest.string body))

(* Strict parser: any deviation fails, and the caller turns the failure
   into a miss. [Scanf]-free by design — fields are split by hand so a
   malformed line can never consume the following one. *)

let split2 line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let ints_of rest = List.map int_of_string (String.split_on_char ' ' rest)

let decode content =
  (* Verify the trailing checksum first: [body] is everything up to and
     including the newline before the "md5 " line. *)
  let len = String.length content in
  if len = 0 || content.[len - 1] <> '\n' then failwith "store: truncated entry";
  let last_start =
    match String.rindex_from_opt content (len - 2) '\n' with
    | Some i -> i + 1
    | None -> failwith "store: truncated entry"
  in
  let body = String.sub content 0 last_start in
  let last = String.sub content last_start (len - last_start - 1) in
  (match split2 last with
   | "md5", hex when hex = Digest.to_hex (Digest.string body) -> ()
   | _ -> failwith "store: checksum mismatch");
  let lines = ref (String.split_on_char '\n' body) in
  let next () =
    match !lines with
    | [] -> failwith "store: truncated entry"
    | l :: rest ->
      lines := rest;
      l
  in
  let field name =
    let k, v = split2 (next ()) in
    if k <> name then failwith (Printf.sprintf "store: expected %s field" name);
    v
  in
  (match field "aqed-store" with
   | v when int_of_string v = format_version -> ()
   | v -> failwith (Printf.sprintf "store: format version %s" v)
   | exception _ -> failwith "store: bad version field");
  let key = field "key" in
  let fp = field "fp" in
  let check = field "check" in
  let verdict_kind, verdict_n =
    match split2 (field "verdict") with
    | "clean", d -> (`Clean, int_of_string d)
    | "bug", d -> (`Bug, int_of_string d)
    | _ -> failwith "store: bad verdict"
  in
  let cert =
    match split2 (field "cert") with
    | "rup", k -> Cert_rup (int_of_string k)
    | "replayed", c -> Cert_replayed (int_of_string c)
    | _ -> failwith "store: bad certificate"
  in
  let frames = int_of_string (field "frames") in
  let aig_nodes, aig_nodes_raw =
    match ints_of (field "nodes") with
    | [ a; b ] -> (a, b)
    | _ -> failwith "store: bad nodes"
  in
  let winner = field "winner" in
  let wall = float_of_string (field "wall") in
  let created = float_of_string (field "created") in
  let solver =
    match ints_of (field "solver") with
    | [ decisions; propagations; conflicts; restarts; learned; max_var;
        clauses; lbd_core; lbd_mid; lbd_local; reductions; vivified ] ->
      { Sat.Solver.decisions; propagations; conflicts; restarts; learned;
        max_var; clauses; lbd_core; lbd_mid; lbd_local; reductions; vivified }
    | _ -> failwith "store: bad solver stats"
  in
  let reduce =
    match field "reduce" with
    | "none" -> None
    | rest -> (
        match ints_of rest with
        | [ nodes_before; nodes_after; latches_before; latches_after;
            coi_dropped_latches; const_latches; sweep_classes; sweep_queries;
            sweep_merged; sweep_limited ] ->
          Some
            { Logic.Reduce.nodes_before; nodes_after; latches_before;
              latches_after; coi_dropped_latches; const_latches; sweep_classes;
              sweep_queries; sweep_merged; sweep_limited }
        | _ -> failwith "store: bad reduce stats")
  in
  let verdict =
    match verdict_kind with
    | `Clean ->
      (match next () with
       | "end" -> ()
       | _ -> failwith "store: trailing data on clean entry");
      Clean verdict_n
    | `Bug ->
      let property = field "property" in
      let sig_of rest =
        match split2 rest with
        | w, rest2 -> (
            match split2 rest2 with
            | bits, name -> (name, bits_parse (int_of_string w) bits))
      in
      (* Frames arrive in order; each "f" opens a frame whose signal lines
         follow until the next "f" or "end". *)
      let rec frames_rev acc cur =
        match next () with
        | "f" -> (
            match cur with
            | None -> frames_rev acc (Some ([], []))
            | Some (ins, regs) ->
              frames_rev
                ({ Bmc.Trace.inputs = List.rev ins; regs = List.rev regs }
                 :: acc)
                (Some ([], [])))
        | "end" -> (
            match cur with
            | None -> List.rev acc
            | Some (ins, regs) ->
              List.rev
                ({ Bmc.Trace.inputs = List.rev ins; regs = List.rev regs }
                 :: acc))
        | l -> (
            match (split2 l, cur) with
            | ("i", rest), Some (ins, regs) ->
              frames_rev acc (Some (sig_of rest :: ins, regs))
            | ("r", rest), Some (ins, regs) ->
              frames_rev acc (Some (ins, sig_of rest :: regs))
            | _ -> failwith "store: bad trace line")
      in
      let frames = frames_rev [] None in
      if List.length frames <> verdict_n then
        failwith "store: trace length disagrees with verdict";
      Bug { Bmc.Trace.property; frames }
  in
  {
    e_key = key;
    e_fingerprint = fp;
    e_check = check;
    e_verdict = verdict;
    e_cert = cert;
    e_frames = frames;
    e_aig_nodes = aig_nodes;
    e_aig_nodes_raw = aig_nodes_raw;
    e_winner = winner;
    e_wall = wall;
    e_reduce = reduce;
    e_solver = solver;
    e_created_s = created;
  }

(* ---- cross-process advisory lock ---- *)

(* The tmp-then-rename discipline keeps individual entries torn-free, but
   it does not order a writer's rename against a concurrent [gc] pass in
   another process: gc stats the directory, sorts by mtime and then
   removes the over-bound tail — and a writer renaming a fresh entry into
   place between the stat and the remove can have that entry reaped,
   because the rename preserves the temp file's mtime, which predates the
   scan. The fix is an advisory file lock ([Unix.lockf], i.e. fcntl) on a
   dedicated [.lock] file in the store directory: writers hold it across
   the rename, gc holds it across its whole stat-and-remove pass, so a
   publish lands entirely before or entirely after a collection.

   fcntl locks are per-process: two threads of one process both "acquire"
   it. That is fine here — the lock orders *processes* (a worker fleet
   sharing one store, or a CLI [store gc] racing a daemon); within one
   process the store handle is already used through one batch driver. *)

let lock_path t = Filename.concat t.store_dir ".lock"

let locked t f =
  let fd =
    Unix.openfile (lock_path t)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.lockf fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

(* ---- lookup and store ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lookup t ~key ~fingerprint =
  let path = path_of t ~key ~fingerprint in
  match read_file path with
  | exception Sys_error _ -> None (* no entry: a plain miss *)
  | content -> (
      match decode content with
      | e when e.e_key = key && e.e_fingerprint = fingerprint -> Some e
      | _ | (exception Failure _) ->
        (* Truncated, corrupted, version-skewed, or a digest collision
           recording some other obligation: degrade to a miss. The caller's
           re-solve overwrites the file. *)
        Telemetry.Counter.incr m_invalid;
        None)

let tmp_counter = Atomic.make 0

let store t e =
  let path = path_of t ~key:e.e_key ~fingerprint:e.e_fingerprint in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (match output_string oc (encode e) with
   | () -> close_out oc
   | exception exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  (* Atomic publish: a concurrent reader sees the old entry or this one,
     never a torn prefix. Last writer wins on a race, which is fine — both
     raced writers hold equivalent certified verdicts. The advisory lock
     orders the rename against a concurrent [gc] pass in another process
     (see [locked]); without it gc could reap this entry as "old" because
     the rename preserves the temp file's mtime. *)
  locked t (fun () -> Unix.rename tmp path);
  Telemetry.Counter.incr m_writes

(* ---- maintenance ---- *)

(* A writer that dies between creating its temp file and the rename leaves
   [<digest>.entry.tmp.<pid>.<n>] behind. Such orphans must never be taken
   for entries by the readdir-based maintenance below — the [".tmp."] infix
   is filtered explicitly rather than relying on the suffix test alone —
   and [gc] reclaims them once they are older than a grace period, i.e.
   once no live writer can still be about to rename them. *)
let is_tmp_file f =
  let n = String.length f in
  let rec has i =
    i + 5 <= n && (String.sub f i 5 = ".tmp." || has (i + 1))
  in
  has 0

let listing t =
  match Sys.readdir t.store_dir with
  | exception Sys_error _ -> []
  | files -> Array.to_list files

let entry_files t =
  List.sort String.compare
    (List.filter
       (fun f -> Filename.check_suffix f entry_suffix && not (is_tmp_file f))
       (listing t))

let tmp_files t = List.filter is_tmp_file (listing t)

type stats = { n_entries : int; n_bytes : int }

let stats t =
  List.fold_left
    (fun acc f ->
      match (Unix.stat (Filename.concat t.store_dir f)).Unix.st_size with
      | size -> { n_entries = acc.n_entries + 1; n_bytes = acc.n_bytes + size }
      | exception Unix.Unix_error _ -> acc)
    { n_entries = 0; n_bytes = 0 }
    (entry_files t)

type gc_result = {
  gc_kept : int;
  gc_removed : int;
  gc_bytes : int;
  gc_tmp_removed : int;
}

let gc ?max_bytes ?max_entries ?(tmp_grace_s = 600.) t =
  (* The whole pass runs under the advisory lock: a concurrent writer in
     another process cannot rename a fresh entry into place between the
     stat scan below and the removals it drives — the publish lands
     entirely before the scan (the entry is seen, newest, kept) or
     entirely after the pass (untouched). *)
  locked t @@ fun () ->
  (* Orphaned writer temp files first: anything older than the grace
     period was abandoned by a crashed writer (a live one renames within
     milliseconds of creating the file) and is reclaimed regardless of the
     size bounds. *)
  let now = Unix.gettimeofday () in
  let tmp_removed =
    List.fold_left
      (fun n f ->
        let path = Filename.concat t.store_dir f in
        match Unix.stat path with
        | st when now -. st.Unix.st_mtime >= tmp_grace_s ->
          (try Sys.remove path with Sys_error _ -> ());
          n + 1
        | _ | (exception Unix.Unix_error _) -> n)
      0 (tmp_files t)
  in
  let files =
    List.filter_map
      (fun f ->
        let path = Filename.concat t.store_dir f in
        match Unix.stat path with
        | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size)
        | exception Unix.Unix_error _ -> None)
      (entry_files t)
  in
  (* Newest first; keep a prefix that fits both bounds, drop the rest. *)
  let files =
    List.sort (fun (_, a, _) (_, b, _) -> compare (b : float) a) files
  in
  let over_entries kept =
    match max_entries with Some m -> kept >= m | None -> false
  in
  let over_bytes bytes size =
    match max_bytes with Some m -> bytes + size > m | None -> false
  in
  let kept, removed, bytes =
    List.fold_left
      (fun (kept, removed, bytes) (path, _, size) ->
        if over_entries kept || over_bytes bytes size then begin
          (try Sys.remove path with Sys_error _ -> ());
          Telemetry.Counter.incr m_gc_removed;
          (kept, removed + 1, bytes)
        end
        else (kept + 1, removed, bytes + size))
      (0, 0, 0) files
  in
  { gc_kept = kept; gc_removed = removed; gc_bytes = bytes;
    gc_tmp_removed = tmp_removed }

type scan_item = { s_file : string; s_entry : (entry, string) result }

let scan t =
  List.map
    (fun f ->
      let s_entry =
        match decode (read_file (Filename.concat t.store_dir f)) with
        | e -> Ok e
        | exception Failure msg -> Error msg
        | exception Sys_error msg -> Error msg
      in
      { s_file = f; s_entry })
    (entry_files t)
