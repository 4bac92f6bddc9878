type 'a t = {
  data : 'a option array;
  mutable head : int; (* sequence number of the oldest live entry *)
  mutable next : int; (* sequence number the next enqueue will get *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Circular_buffer.create: capacity < 1";
  { data = Array.make capacity None; head = 0; next = 0 }

let capacity t = Array.length t.data
let length t = t.next - t.head
let is_empty t = length t = 0
let is_full t = length t = capacity t

let slot t seq = seq mod capacity t

let enqueue t v =
  if is_full t then failwith "Circular_buffer.enqueue: full";
  let seq = t.next in
  t.data.(slot t seq) <- Some v;
  t.next <- seq + 1;
  seq

let contains t seq = seq >= t.head && seq < t.next

let get t seq =
  if not (contains t seq) then
    invalid_arg (Printf.sprintf "Circular_buffer.get: seq %d not in [%d,%d)" seq t.head t.next);
  match t.data.(slot t seq) with
  | Some v -> v
  | None -> assert false

let set t seq v =
  if not (contains t seq) then
    invalid_arg (Printf.sprintf "Circular_buffer.set: seq %d not in [%d,%d)" seq t.head t.next);
  t.data.(slot t seq) <- Some v

let oldest t = if is_empty t then None else Some (t.head, get t t.head)
let newest t = if is_empty t then None else Some (t.next - 1, get t (t.next - 1))

let dequeue t =
  match oldest t with
  | None -> None
  | Some (seq, v) ->
    t.data.(slot t seq) <- None;
    t.head <- seq + 1;
    Some (seq, v)

let drop_newer_than t seq =
  let keep_until = min t.next (max t.head (seq + 1)) in
  for s = keep_until to t.next - 1 do
    t.data.(slot t s) <- None
  done;
  t.next <- keep_until

let iter_from t seq f =
  for s = max seq t.head to t.next - 1 do
    f s (get t s)
  done

let iter t f = iter_from t t.head f

let to_list t =
  let acc = ref [] in
  iter t (fun seq v -> acc := (seq, v) :: !acc);
  List.rev !acc
