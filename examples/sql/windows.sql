-- Dataflow operator graphs: the SQL features that cannot be maintained
-- in the ring — MIN/MAX, DISTINCT and windowed aggregates — compile
-- onto a delta-propagating operator DAG (lib/dataflow). Run with:
--
--   dune exec bin/ivm_cli.exe -- sql examples/sql/windows.sql
--
-- EXPLAIN on these views appends the operator DAG itself, one line per
-- node, so the lowering is auditable.

CREATE TABLE Readings (sensor, t, temp);

-- Grouped extrema. Deleting the currently served minimum forces the
-- engine's re-scan fallback over the group's ordered value multiset —
-- an output-only state could never answer it.
CREATE MATERIALIZED VIEW extremes AS
  SELECT sensor, MIN(temp), MAX(temp) FROM Readings GROUP BY sensor;
EXPLAIN SELECT sensor, MIN(temp), MAX(temp) FROM Readings GROUP BY sensor;

-- Tumbling-window SUM over the integer event-time column t: one pane
-- per 10 ticks, keyed (w_t, sensor). The watermark is the largest t
-- seen on inserts; once it passes a pane's end, the pane's rows are
-- retracted from the output and late arrivals for it are dropped.
CREATE MATERIALIZED VIEW temp_by_decade AS
  SELECT sensor, SUM(temp) FROM Readings GROUP BY sensor
  WINDOW (TUMBLE t SIZE 10);
EXPLAIN SELECT sensor, SUM(temp) FROM Readings GROUP BY sensor
  WINDOW (TUMBLE t SIZE 10);

INSERT INTO Readings VALUES (1, 1, 20), (1, 4, 23), (1, 8, 19), (2, 3, 30);

-- Served from the maintained views.
SELECT sensor, MIN(temp), MAX(temp) FROM Readings GROUP BY sensor;

-- Delete sensor 1's current minimum (19): its MIN re-scans to 20.
DELETE FROM Readings VALUES (1, 8, 19);
SELECT sensor, MIN(temp), MAX(temp) FROM Readings GROUP BY sensor;

-- Advance event time past the first pane: t=14 moves the watermark to
-- 14, retracting pane [0, 10) — only the live pane remains.
INSERT INTO Readings VALUES (1, 14, 25);
SELECT sensor, SUM(temp) FROM Readings GROUP BY sensor
  WINDOW (TUMBLE t SIZE 10);

-- DISTINCT over a join, also on the operator graph: duplicates in the
-- support collapse to presence, and only zero crossings retract.
CREATE TABLE Assignments (worker, task);
CREATE TABLE Tasks (task, room);
CREATE MATERIALIZED VIEW busy_rooms AS
  SELECT DISTINCT room FROM Assignments, Tasks;
INSERT INTO Tasks VALUES (100, 'lab'), (101, 'lab'), (102, 'office');
INSERT INTO Assignments VALUES (7, 100), (7, 101), (8, 102);
DELETE FROM Assignments VALUES (7, 100);
SELECT DISTINCT room FROM Assignments, Tasks;

-- Extrema over the whole table: without GROUP BY, one extrema node
-- keyed on the empty group serves a single (MIN, MAX) row from one
-- shared value multiset. Deleting the served maximum (30) re-reads it.
CREATE MATERIALIZED VIEW temp_range AS
  SELECT MIN(temp), MAX(temp) FROM Readings;
EXPLAIN SELECT MIN(temp), MAX(temp) FROM Readings;
SELECT MIN(temp), MAX(temp) FROM Readings;
DELETE FROM Readings VALUES (2, 3, 30);
SELECT MIN(temp), MAX(temp) FROM Readings;
