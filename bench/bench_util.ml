(** Shared machinery for the experiment harness: wall-clock timing,
    table rendering, and log-log slope fitting for the complexity-shape
    experiments. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Time [f] and return seconds only. *)
let seconds f = snd (time f)

(** Average seconds per call over [n] calls of [f]. *)
let per_call n f =
  let t0 = now () in
  for i = 1 to n do
    f i
  done;
  (now () -. t0) /. float_of_int n

(** Fitted slope of log(time) against log(n): the measured complexity
    exponent. *)
let fitted_exponent (points : (float * float) list) : float =
  let logs = List.map (fun (x, y) -> (log x, log (max y 1e-12))) points in
  let n = float_of_int (List.length logs) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n";
  flush stdout

(** Render a table with left-aligned first column. *)
let table ~header rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w cell -> max w (String.length cell)) ws row)
      (List.map String.length header)
      rows
  in
  let line cells =
    String.concat "  "
      (List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths cells)
  in
  Printf.printf "%s\n" (line header);
  Printf.printf "%s\n" (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Printf.printf "%s\n" (line row)) rows;
  flush stdout

let us t = Printf.sprintf "%.2f" (t *. 1e6)
let ms t = Printf.sprintf "%.1f" (t *. 1e3)
let rate n t = Printf.sprintf "%.0f" (float_of_int n /. max 1e-9 t)

(** Minimal JSON for the machine-readable [BENCH_*.json] artifacts the
    CI and plotting scripts consume — no dependency beyond stdlib. *)
type json =
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec write_json buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf x)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf (Str k);
          Buffer.add_char buf ':';
          write_json buf v)
        kvs;
      Buffer.add_char buf '}'

(** Write [BENCH_<name>.json] into the current directory and say so. *)
let emit_json ~name json =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let buf = Buffer.create 1024 in
  write_json buf json;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path
