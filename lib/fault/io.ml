(** The injectable file-I/O layer the durability code routes through.

    Every operation is result-typed — real OS errors ([Sys_error],
    [Unix_error]) and injected faults both come back as {!error} values,
    so callers handle "the disk misbehaved" in one place instead of
    scattering exception handlers. Each handle carries a [tag]; an
    operation [op] on a tagged handle consults the failpoint
    ["<tag>.<op>"] (e.g. ["wal.write"], ["ckpt.fsync"]), which is how a
    chaos harness injects short writes, failed fsyncs, bit flips and
    torn renames into exactly one subsystem at a time.

    Durability discipline: {!write} buffers (via the underlying channel),
    {!fsync} flushes and [fsync(2)]s, {!rename} + {!fsync_dir} make
    replace-by-rename survive a crash between the write and the rename
    becoming durable. *)

type error = { op : string; path : string; detail : string; injected : bool }

let pp_error ppf e =
  Format.fprintf ppf "%s(%s): %s%s" e.op e.path e.detail
    (if e.injected then " [injected]" else "")

let error_to_string e = Format.asprintf "%a" pp_error e

type out = { tag : string; path : string; oc : out_channel }

(* The failpoint ["<tag>.<op>"], named only when injection is on. *)
let fp tag op = if Failpoint.enabled () then Failpoint.hit (tag ^ "." ^ op) else None

let err ?(injected = false) op path detail = Error { op; path; detail; injected }

let catching op path f =
  match f () with
  | v -> Ok v
  | exception Sys_error m -> err op path m
  | exception Unix.Unix_error (e, _, _) -> err op path (Unix.error_message e)

let open_append ~tag path =
  catching "open" path (fun () ->
      { tag; path; oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path })

let open_trunc ~tag path =
  catching "open" path (fun () ->
      { tag; path; oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path })

let flip_bit s i =
  let b = Bytes.of_string s in
  let bit = i mod (8 * Bytes.length b) in
  let byte = bit / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* A short write flushes the prefix deliberately: the torn bytes must be
   on disk for recovery to find (and truncate), exactly as after a real
   crash mid-write. *)
let output_ok t b len =
  match output t.oc b 0 len with () -> Ok () | exception Sys_error m -> err "write" t.path m

let write_bytes t b ~len =
  match fp t.tag "write" with
  | Some Failpoint.Fail -> err ~injected:true "write" t.path "injected write failure"
  | Some (Failpoint.Short_write k) ->
      (try
         output t.oc b 0 (min k len);
         flush t.oc
       with Sys_error _ -> ());
      err ~injected:true "write" t.path "injected short write (torn record)"
  | Some (Failpoint.Bit_flip i) when len > 0 ->
      output_ok t (Bytes.unsafe_of_string (flip_bit (Bytes.sub_string b 0 len) i)) len
  | Some (Failpoint.Delay d) ->
      Unix.sleepf d;
      output_ok t b len
  | Some (Failpoint.Bit_flip _) | None -> output_ok t b len

let write t s = write_bytes t (Bytes.unsafe_of_string s) ~len:(String.length s)

let flush_out t = catching "flush" t.path (fun () -> flush t.oc)

let fsync t =
  match fp t.tag "fsync" with
  | Some (Failpoint.Fail | Failpoint.Short_write _ | Failpoint.Bit_flip _) ->
      err ~injected:true "fsync" t.path "injected fsync failure"
  | Some (Failpoint.Delay d) ->
      Unix.sleepf d;
      catching "fsync" t.path (fun () ->
          flush t.oc;
          Unix.fsync (Unix.descr_of_out_channel t.oc))
  | None ->
      catching "fsync" t.path (fun () ->
          flush t.oc;
          Unix.fsync (Unix.descr_of_out_channel t.oc))

let close t =
  catching "close" t.path (fun () ->
      flush t.oc;
      close_out t.oc)

let close_noerr t = close_out_noerr t.oc

(** Simulate a crash on this handle: close the descriptor underneath the
    channel so buffered bytes are dropped, never flushed. What recovery
    will see is exactly what earlier {!write}/{!fsync} calls put on disk. *)
let crash t =
  (try Unix.close (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ -> ());
  close_out_noerr t.oc

let rename ~tag ~src ~dst =
  match fp tag "rename" with
  | Some (Failpoint.Fail | Failpoint.Short_write _ | Failpoint.Bit_flip _) ->
      err ~injected:true "rename" dst "injected rename failure (crash before install)"
  | Some (Failpoint.Delay d) ->
      Unix.sleepf d;
      catching "rename" dst (fun () -> Sys.rename src dst)
  | None -> catching "rename" dst (fun () -> Sys.rename src dst)

let fsync_dir ~tag path =
  match fp tag "dirsync" with
  | Some (Failpoint.Fail | Failpoint.Short_write _ | Failpoint.Bit_flip _) ->
      err ~injected:true "dirsync" path "injected directory fsync failure"
  | Some (Failpoint.Delay _) | None ->
      catching "dirsync" path (fun () ->
          let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* Some filesystems refuse fsync on directories; treat
                 EINVAL like success, as fsync-capable callers do. *)
              try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ()))

let read_file ~tag path =
  let read () =
    catching "read" path (fun () ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  in
  match fp tag "read" with
  | Some (Failpoint.Fail | Failpoint.Short_write _) ->
      err ~injected:true "read" path "injected read failure"
  | Some (Failpoint.Bit_flip i) ->
      Result.map (fun s -> if String.length s = 0 then s else flip_bit s i) (read ())
  | Some (Failpoint.Delay d) ->
      Unix.sleepf d;
      read ()
  | None -> read ()

let truncate ~tag path len =
  match fp tag "truncate" with
  | Some (Failpoint.Fail | Failpoint.Short_write _ | Failpoint.Bit_flip _) ->
      err ~injected:true "truncate" path "injected truncate failure"
  | Some (Failpoint.Delay _) | None ->
      catching "truncate" path (fun () -> Unix.truncate path len)

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()
