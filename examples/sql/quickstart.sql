-- SQL quickstart for the IVM toolbox. Run with:
--
--   dune exec bin/ivm_cli.exe -- sql examples/sql/quickstart.sql
--
-- Statements end with ';'. Tables are bags of rows; joins are natural
-- (tables sharing a column name join on it). CREATE MATERIALIZED VIEW
-- hands the query to the planner, which classifies it along
-- the paper's taxonomy (hierarchical / q-hierarchical / free-connex /
-- static-dynamic) and compiles it onto the best maintenance engine;
-- EXPLAIN shows the decision and the facts behind it.

CREATE TABLE Sales (store, item, qty);
CREATE TABLE Stores (store, zip);
CREATE TABLE Items (item, cat);

-- q-hierarchical: constant-time updates with constant-delay
-- enumeration, maintained by the factorized view tree (the eager-fact
-- strategy), which also reports each batch's output delta.
CREATE MATERIALIZED VIEW store_items AS
  SELECT store, zip, item FROM Sales, Stores;
EXPLAIN SELECT store, zip, item FROM Sales, Stores;

-- The snowflake join below is not hierarchical, so constant-time
-- maintenance is impossible; the planner falls back to the factorized
-- view tree.
CREATE MATERIALIZED VIEW zip_cats AS
  SELECT zip, cat FROM Sales, Stores, Items;
EXPLAIN SELECT zip, cat FROM Sales, Stores, Items;

-- A group-by aggregate, maintained in the ring.
CREATE MATERIALIZED VIEW qty_by_cat AS
  SELECT cat, SUM(qty) FROM Sales, Items GROUP BY cat;

INSERT INTO Stores VALUES (1, 94107), (2, 10001);
INSERT INTO Items VALUES (10, 'espresso'), (11, 'filter'), (12, 'decaf');
INSERT INTO Sales VALUES (1, 10, 3), (1, 11, 2), (2, 10, 1), (2, 12, 5);
DELETE FROM Sales VALUES (2, 12, 5);

-- Both selects below match a maintained view and answer from it.
SELECT store, zip, item FROM Sales, Stores;
SELECT cat, SUM(qty) FROM Sales, Items GROUP BY cat;

-- DDL with FDs (Ex. 4.12): every shop has one zip, every zip one
-- region. The join is not hierarchical as written, but its Σ-reduct
-- under the FDs is q-hierarchical, so over FD-satisfying data the
-- planner maintains it in O(1) per update over the reduct's variable
-- order (Thm. 4.11) -- whatever the order of the SELECT columns.
CREATE TABLE Visits (shop, day);
CREATE TABLE Shops (shop, zip, FD shop -> zip);
CREATE TABLE Zips (zip, region, FD zip -> region);
CREATE MATERIALIZED VIEW visit_regions AS
  SELECT day, shop, zip, region FROM Visits, Shops, Zips;
INSERT INTO Zips VALUES (94107, 'west'), (10001, 'east');
INSERT INTO Shops VALUES (1, 94107), (2, 94107), (3, 10001);
INSERT INTO Visits VALUES (1, 'mon'), (2, 'mon'), (3, 'tue');
DELETE FROM Zips VALUES (94107, 'west');
INSERT INTO Zips VALUES (94107, 'pacific');
SELECT day, shop, zip, region FROM Visits, Shops, Zips;
EXPLAIN SELECT day, shop, zip, region FROM Visits, Shops, Zips;

-- The triangle count compiles onto the first-order delta kernel (Sec. 3.1).
CREATE TABLE R (a, b);
CREATE TABLE S (b, c);
CREATE TABLE T (c, a);
CREATE MATERIALIZED VIEW triangles AS SELECT COUNT(*) FROM R, S, T;
INSERT INTO R VALUES (1, 2);
INSERT INTO S VALUES (2, 3);
INSERT INTO T VALUES (3, 1);
SELECT COUNT(*) FROM R, S, T;
EXPLAIN SELECT COUNT(*) FROM R, S, T;
