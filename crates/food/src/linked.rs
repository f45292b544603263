//! Publish the A1 products as linked data.
//!
//! "The maps will be available as linked data together with other
//! geospatial layers (e.g., OpenStreetMap, field boundaries, crop types
//! etc.)" — parcels become RDF features through the GeoTriples mapping,
//! carrying crop type, area, mean water availability and irrigation
//! demand, and are then queryable with GeoSPARQL alongside anything else
//! in the store.

use crate::promet::PrometOutput;
use crate::FoodError;
use ee_datasets::Landscape;
use ee_geo::algorithms;
use ee_geotriples::features::{Feature, FeatureCollection, PropValue};
use ee_geotriples::mapping::{feature_mapping, TermType};
use ee_rdf::TripleStore;

/// The A1 vocabulary namespace.
pub const FARM: &str = "http://extremeearth.eu/ont/farm#";

/// Build the parcel feature collection with model outputs attached.
pub fn parcel_features(
    world: &Landscape,
    crop_map: &ee_raster::Raster<u8>,
    output: &PrometOutput,
) -> Result<FeatureCollection, FoodError> {
    if crop_map.shape() != world.truth.shape() {
        return Err(FoodError::Config("crop map grid mismatch".into()));
    }
    let mut fc = FeatureCollection::new();
    for parcel in &world.parcels {
        // Aggregate model outputs over the parcel's pixels.
        let mut water = 0.0f64;
        let mut demand = 0.0f64;
        let mut votes = [0u32; 10];
        let mut count = 0usize;
        for (c, r, pid) in world.parcel_map.iter() {
            if pid == parcel.id {
                water += output.water_availability.at(c, r) as f64;
                demand += output.irrigation_demand.at(c, r) as f64;
                votes[crop_map.at(c, r) as usize] += 1;
                count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        let mapped_class = votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| n)
            .map(|(i, _)| ee_datasets::LandClass::from_index(i).expect("valid"))
            .expect("non-empty");
        let area_ha = algorithms::polygon_area(&parcel.polygon) / 10_000.0;
        fc.push(
            Feature::new(parcel.polygon.clone().into())
                .with("id", PropValue::Int(parcel.id as i64))
                .with("cropType", PropValue::Str(mapped_class.name().to_string()))
                .with("areaHa", PropValue::Float(area_ha))
                .with("waterAvailability", PropValue::Float(water / count as f64))
                .with("irrigationDemandMm", PropValue::Float(demand / count as f64)),
        );
    }
    Ok(fc)
}

/// Publish the features into a fresh RDF store via the GeoTriples mapping.
pub fn publish(fc: &FeatureCollection) -> Result<TripleStore, FoodError> {
    let mapping = feature_mapping(
        &format!("{FARM}parcel/"),
        "id",
        &format!("{FARM}Parcel"),
        &[
            (&format!("{FARM}cropType"), "cropType", TermType::String),
            (&format!("{FARM}areaHa"), "areaHa", TermType::Double),
            (
                &format!("{FARM}waterAvailability"),
                "waterAvailability",
                TermType::Double,
            ),
            (
                &format!("{FARM}irrigationDemandMm"),
                "irrigationDemandMm",
                TermType::Double,
            ),
        ],
    );
    let mut store = TripleStore::new();
    mapping
        .run_features(fc, &mut store)
        .map_err(|e| FoodError::Data(e.to_string()))?;
    store.build_spatial_index();
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promet::{run, PrometConfig};
    use ee_datasets::landscape::LandscapeConfig;

    fn pipeline() -> (Landscape, TripleStore) {
        let world = Landscape::generate(LandscapeConfig {
            size: 32,
            parcels_per_side: 4,
            ..LandscapeConfig::default()
        })
        .unwrap();
        let output = run(&world, &world.truth, PrometConfig::default()).unwrap();
        let fc = parcel_features(&world, &world.truth, &output).unwrap();
        let store = publish(&fc).unwrap();
        (world, store)
    }

    #[test]
    fn every_parcel_is_published() {
        let (world, store) = pipeline();
        let sol = ee_rdf::exec::query(
            &store,
            &format!(
                "PREFIX farm: <{FARM}> SELECT (COUNT(?p) AS ?n) WHERE {{ ?p a farm:Parcel }}"
            ),
        )
        .unwrap();
        assert_eq!(
            sol.scalar(),
            Some(&ee_rdf::term::Term::integer(world.parcels.len() as i64))
        );
    }

    #[test]
    fn irrigation_advisory_query() {
        let (_, store) = pipeline();
        // Farmers ask: which wheat parcels need > 20 mm of irrigation?
        let sol = ee_rdf::exec::query(
            &store,
            &format!(
                "PREFIX farm: <{FARM}> SELECT ?p ?d WHERE {{ \
                 ?p a farm:Parcel ; farm:cropType \"Wheat\" ; farm:irrigationDemandMm ?d . \
                 FILTER(?d > 20) }} ORDER BY DESC(?d)"
            ),
        )
        .unwrap();
        // Existence depends on weather; the query itself must be valid and
        // deterministic.
        for w in sol.rows.windows(2) {
            let get = |row: &Vec<Option<ee_rdf::term::Term>>| -> f64 {
                match &row[1] {
                    Some(ee_rdf::term::Term::Literal { lexical, .. }) => {
                        lexical.parse().unwrap_or(0.0)
                    }
                    _ => 0.0,
                }
            };
            assert!(get(&w[0]) >= get(&w[1]), "descending order");
        }
    }

    #[test]
    fn spatial_query_over_parcels() {
        let (world, store) = pipeline();
        let env = world.truth.envelope();
        let half = format!(
            "POLYGON (({} {}, {} {}, {} {}, {} {}, {} {}))",
            env.min_x, env.min_y,
            env.center().x, env.min_y,
            env.center().x, env.max_y,
            env.min_x, env.max_y,
            env.min_x, env.min_y,
        );
        let sol = ee_rdf::exec::query(
            &store,
            &format!(
                "PREFIX farm: <{FARM}> SELECT ?p WHERE {{ \
                 ?p a farm:Parcel ; geo:asWKT ?g . \
                 FILTER(geof:sfIntersects(?g, \"{half}\"^^geo:wktLiteral)) }}"
            ),
        )
        .unwrap();
        let all = ee_rdf::exec::query(
            &store,
            &format!("PREFIX farm: <{FARM}> SELECT ?p WHERE {{ ?p a farm:Parcel }}"),
        )
        .unwrap();
        assert!(!sol.is_empty());
        assert!(sol.len() < all.len(), "western half has fewer parcels than all");
    }

    #[test]
    fn feature_properties_are_physical() {
        let world = Landscape::generate(LandscapeConfig {
            size: 32,
            parcels_per_side: 4,
            ..LandscapeConfig::default()
        })
        .unwrap();
        let output = run(&world, &world.truth, PrometConfig::default()).unwrap();
        let fc = parcel_features(&world, &world.truth, &output).unwrap();
        assert_eq!(fc.len(), world.parcels.len());
        for f in &fc.features {
            match f.get("waterAvailability") {
                Some(PropValue::Float(v)) => assert!((0.0..=1.0).contains(v)),
                other => panic!("missing waterAvailability: {other:?}"),
            }
            match f.get("areaHa") {
                Some(PropValue::Float(v)) => assert!(*v > 0.0),
                other => panic!("missing areaHa: {other:?}"),
            }
        }
    }
}
