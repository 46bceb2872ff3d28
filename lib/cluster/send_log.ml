(** The exactly-once driver protocol of DESIGN §8: a per-shard send
    log, cut by the router's published lost ranges and extended only by
    what a shard provably admitted. *)

module U = Ivm_data.Update

let ( let* ) = Result.bind

type log = { mutable entries : int U.t list; (* newest first *) mutable len : int }
type t = { router : Router.t; logs : log array }

(* Attempts per send, re-sends included. *)
let tries = 8

let create router =
  { router; logs = Array.init (Router.shard_count router) (fun _ -> { entries = []; len = 0 }) }

let length t ~shard = t.logs.(shard).len

let rec take k = function u :: rest when k > 0 -> u :: take (k - 1) rest | _ -> []
let rec drop k = function xs when k <= 0 -> xs | [] -> [] | _ :: rest -> drop (k - 1) rest

let append log batch =
  List.iter
    (fun u ->
      log.entries <- u :: log.entries;
      log.len <- log.len + 1)
    batch

(* Cut the shard's published lost ranges out of its log and return
   their records, oldest first. Each [from, upto) indexes the log as
   the router counted it when the range was published: after every
   older range was cut, with every later append at the end. So ranges
   are cut one at a time, oldest first, and an append never shifts a
   range below it. *)
let take_lost t ~shard =
  let log = t.logs.(shard) in
  List.fold_left
    (fun lost (from, upto) ->
      let keep = ref [] and cut = ref [] in
      List.iteri
        (fun j u -> if j >= from && j < upto then cut := u :: !cut else keep := u :: !keep)
        (List.rev log.entries);
      log.entries <- !keep;
      log.len <- List.length !keep;
      lost @ List.rev !cut)
    []
    (Router.take_lost t.router ~shard)

let rec send_tries t ~shard ~tries batch =
  if batch = [] then Ok ()
  else if tries = 0 then Error (Printf.sprintf "shard %d: send attempts exhausted" shard)
  else
    let log = t.logs.(shard) in
    match Router.ingest_shard t.router ~shard batch with
    | Ok admitted ->
        (* Append before cutting: a range published after this ack may
           already cover the batch's records. *)
        append log (take admitted batch);
        let lost = take_lost t ~shard in
        let rest = drop admitted batch in
        (* A short ack means a dying node closed its queue; the retry
           runs against its replacement. *)
        if rest <> [] then Unix.sleepf 0.01;
        send_tries t ~shard ~tries:(tries - 1) (lost @ rest)
    | Error _ ->
        Unix.sleepf 0.02;
        (* Never re-send before the fence says how much landed. Lost
           records are cut first and re-sent after the landed part is
           credited, so the log keeps the order the shard admitted. *)
        let* absorbed, lost = resolve t ~shard ~tries (take_lost t ~shard) in
        if absorbed < log.len then
          Error
            (Printf.sprintf "shard %d absorbed %d records, fewer than the %d logged" shard
               absorbed log.len)
        else begin
          let landed = min (absorbed - log.len) (List.length batch) in
          append log (take landed batch);
          send_tries t ~shard ~tries:(tries - 1) (lost @ drop landed batch)
        end

(* Fence the shard onto a live primary and read its absorbed count. A
   range published meanwhile (the fence promoted, or a prober did right
   after) makes the count stale: cut it and fence again. *)
and resolve t ~shard ~tries lost =
  match Router.reconcile_sent t.router ~shard with
  | Error m ->
      if tries <= 1 then Error m
      else begin
        Unix.sleepf 0.05;
        resolve t ~shard ~tries:(tries - 1) lost
      end
  | Ok absorbed ->
      if not (Router.has_lost t.router ~shard) then Ok (absorbed, lost)
      else if tries <= 1 then
        Error (Printf.sprintf "shard %d would not settle on a live primary" shard)
      else resolve t ~shard ~tries:(tries - 1) (lost @ take_lost t ~shard)

let send t ~shard batch = send_tries t ~shard ~tries batch

let rec each_shard t f i =
  if i >= Array.length t.logs then Ok ()
  else
    let* () = f i in
    each_shard t f (i + 1)

let route t batch =
  let topo = Router.topology t.router in
  let buckets = Array.make (Array.length t.logs) [] in
  List.iter
    (fun (u : int U.t) ->
      match Topology.owners topo ~rel:u.U.rel u.U.tuple with
      | None -> ()
      | Some owners -> List.iter (fun i -> buckets.(i) <- u :: buckets.(i)) owners)
    (List.rev batch);
  each_shard t (fun i -> send t ~shard:i buckets.(i)) 0

let settle t =
  let rec go tries =
    if tries = 0 then Error "cluster did not settle"
    else
      let* () = each_shard t (fun i -> send t ~shard:i (take_lost t ~shard:i)) 0 in
      match Router.barrier t.router with
      | Error _ ->
          (* A node that crashed after its last ack fails the fence at
             once, well before the prober declares it dead: pace the
             retries instead of burning them. *)
          Unix.sleepf 0.05;
          go (tries - 1)
      | Ok _ ->
          let shards = List.init (Array.length t.logs) Fun.id in
          if List.exists (fun i -> Router.has_lost t.router ~shard:i) shards then go (tries - 1)
          else
            match
              List.find_opt (fun i -> Router.shard_sent t.router ~shard:i <> length t ~shard:i) shards
            with
            | None -> Ok ()
            | Some i ->
                Error
                  (Printf.sprintf "shard %d: router counts %d records sent, the send log holds %d"
                     i (Router.shard_sent t.router ~shard:i) (length t ~shard:i))
  in
  go 10
