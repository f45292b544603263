//! Big linked geospatial data (Challenge C3) end to end:
//!
//! map tabular + vector sources to RDF with the GeoTriples-style mapping,
//! interlink two datasets spatially with meta-blocking, then federate
//! SPARQL over the distributed sources Semagrow-style.
//!
//! ```text
//! cargo run --release --example linked_data_federation
//! ```

use extremeearth::federation::{federated_query, Endpoint, FederationCatalog, Mode};
use extremeearth::geo::{Point, Polygon};
use extremeearth::geotriples::csv::parse_csv;
use extremeearth::geotriples::features::{Feature, FeatureCollection, PropValue};
use extremeearth::geotriples::mapping::{feature_mapping, ObjectMap, TermType, TriplesMap};
use extremeearth::interlink::discover::{discover, DiscoverConfig};
use extremeearth::interlink::entity::{LinkRule, SpatialEntity, SpatialRelation};
use extremeearth::rdf::TripleStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- GeoTriples: a CSV crop register becomes RDF. -------------------
    let register = parse_csv(
        "id,crop,yield\n\
         f1,wheat,4.2\n\
         f2,maize,6.1\n\
         f3,wheat,3.9\n",
    )?;
    let mapping = TriplesMap {
        subject_template: "http://farm.example/field/{id}".into(),
        class: Some("http://farm.example/Field".into()),
        predicate_objects: vec![
            (
                "http://farm.example/crop".into(),
                ObjectMap::Reference {
                    field: "crop".into(),
                    term_type: TermType::String,
                },
            ),
            (
                "http://farm.example/yield".into(),
                ObjectMap::Reference {
                    field: "yield".into(),
                    term_type: TermType::Double,
                },
            ),
        ],
    };
    let mut crops = TripleStore::new();
    let emitted = mapping.run_table(&register, &mut crops)?;
    println!("GeoTriples: {emitted} triples from the crop register");

    // --- GeoTriples again: a vector parcel layer with geometries. -------
    let mut parcels = FeatureCollection::new();
    for (i, (x, y)) in [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)].iter().enumerate() {
        parcels.push(
            Feature::new(Polygon::rectangle(*x, *y, x + 8.0, y + 8.0).into())
                .with("id", PropValue::Str(format!("f{}", i + 1))),
        );
    }
    let geo_mapping = feature_mapping(
        "http://farm.example/field/",
        "id",
        "http://farm.example/Field",
        &[],
    );
    let mut geo_store = TripleStore::new();
    geo_mapping.run_features(&parcels, &mut geo_store)?;
    geo_store.build_spatial_index();
    println!("GeoTriples: {} geometry triples from the parcel layer", geo_store.len());

    // --- Interlinking: which weather stations sit inside which parcel? --
    let stations: Vec<SpatialEntity> = [(4.0, 4.0), (14.0, 2.0), (40.0, 40.0)]
        .iter()
        .enumerate()
        .map(|(i, (x, y))| SpatialEntity::new(100 + i as u64, Point::new(*x, *y).into()))
        .collect();
    let parcel_entities: Vec<SpatialEntity> = parcels
        .features
        .iter()
        .enumerate()
        .map(|(i, f)| SpatialEntity::new(i as u64, f.geometry.clone()))
        .collect();
    let links = discover(
        &stations,
        &parcel_entities,
        LinkRule::spatial(SpatialRelation::Within),
        DiscoverConfig::default(),
    )?;
    println!(
        "interlinking: {} within-links found with {} comparisons (vs {} exhaustive)",
        links.links.len(),
        links.comparisons,
        links.exhaustive_comparisons
    );

    // --- Federation: query crops + geometries across both sources. ------
    let endpoints = vec![
        Endpoint::new("crop-register", crops),
        Endpoint::new("parcel-geometries", geo_store),
    ];
    let catalog = FederationCatalog::build(&endpoints);
    let query = "PREFIX farm: <http://farm.example/> \
                 SELECT ?f ?g WHERE { ?f farm:crop \"wheat\" . ?f geo:asWKT ?g }";
    for mode in [Mode::Naive, Mode::Optimized] {
        let report = federated_query(&endpoints, &catalog, query, mode)?;
        println!(
            "federation {:?}: {} rows, {} requests, {} triples moved",
            mode,
            report.rows.len(),
            report.total_requests,
            report.triples_transferred
        );
    }
    Ok(())
}
